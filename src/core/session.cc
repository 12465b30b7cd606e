#include "core/session.h"

#include <cstdio>
#include <sstream>

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/error.h"

namespace seer::core {

namespace {

/** Round-trip-exact double rendering (deadlines on the wire). */
std::string
formatDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

void
appendField(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += ' ';
    out += value;
    out += '\n';
}

void
appendSection(std::string &out, const char *key,
              const std::string &bytes)
{
    out += key;
    out += ' ';
    out += std::to_string(bytes.size());
    out += '\n';
    out += bytes;
}

/** Cursor over the line-oriented header + byte sections. */
struct Reader
{
    const std::string &text;
    size_t pos = 0;

    bool line(std::string &out)
    {
        if (pos >= text.size())
            return false;
        size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            return false;
        out = text.substr(pos, end - pos);
        pos = end + 1;
        return true;
    }

    bool bytes(size_t count, std::string &out)
    {
        if (text.size() - pos < count)
            return false;
        out = text.substr(pos, count);
        pos += count;
        return true;
    }
};

bool
parseUint(const std::string &text, uint64_t *value)
{
    if (text.empty())
        return false;
    try {
        size_t used = 0;
        *value = std::stoull(text, &used);
        return used == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

bool
parseInt(const std::string &text, int64_t *value)
{
    if (text.empty())
        return false;
    try {
        size_t used = 0;
        *value = std::stoll(text, &used);
        return used == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

bool
parseDouble(const std::string &text, double *value)
{
    if (text.empty())
        return false;
    try {
        size_t used = 0;
        *value = std::stod(text, &used);
        return used == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

bool
splitField(const std::string &line, std::string &key,
           std::string &value)
{
    size_t space = line.find(' ');
    if (space == std::string::npos) {
        key = line;
        value.clear();
        return !key.empty();
    }
    key = line.substr(0, space);
    value = line.substr(space + 1);
    return !key.empty();
}

bool
fail(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

constexpr const char *kRequestMagic = "seer-req/1";
constexpr const char *kResponseMagic = "seer-resp/1";

} // namespace

ServeRequest
ServeRequest::fromOptions(const SeerOptions &options)
{
    ServeRequest request;
    request.use_rover = options.use_rover;
    request.use_control = options.use_control;
    request.max_phases = options.max_phases;
    request.exact_datapath = options.exact_datapath;
    request.naive_extract = options.naive_extract;
    request.use_laws = options.use_laws;
    request.unroll_max_trip = options.unroll_max_trip;
    request.jobs = options.jobs;
    request.use_pass_cache = options.use_pass_cache;
    request.strict = options.strict;
    request.deadline_seconds = options.deadline_seconds;
    request.mem_budget_bytes = options.mem_budget_bytes;
    request.validation_runs = options.validation_runs;
    request.schedule = scheduleKindName(options.schedule);
    request.eval_budget = options.eval_budget;
    request.schedule_seed = options.schedule_seed;
    request.time_limit_seconds = options.runner.time_limit_seconds;
    return request;
}

SeerOptions
ServeRequest::toOptions() const
{
    SeerOptions options;
    options.use_rover = use_rover;
    options.use_control = use_control;
    options.max_phases = max_phases;
    options.exact_datapath = exact_datapath;
    options.naive_extract = naive_extract;
    options.use_laws = use_laws;
    options.unroll_max_trip = unroll_max_trip;
    options.jobs = jobs;
    options.use_pass_cache = use_pass_cache;
    options.strict = strict;
    options.deadline_seconds = deadline_seconds;
    options.mem_budget_bytes = mem_budget_bytes;
    options.validation_runs = validation_runs;
    // parseRequest validated the name; an unknown one here (a request
    // built by hand) falls back to the exhaustive default.
    parseScheduleKind(schedule, &options.schedule);
    options.eval_budget = eval_budget;
    options.schedule_seed = schedule_seed;
    options.runner.time_limit_seconds = time_limit_seconds;
    return options;
}

std::string
serializeRequest(const ServeRequest &request)
{
    std::string out;
    out += kRequestMagic;
    out += '\n';
    if (!request.func.empty())
        appendField(out, "func", request.func);
    appendField(out, "rover", request.use_rover ? "1" : "0");
    appendField(out, "control", request.use_control ? "1" : "0");
    appendField(out, "phases", std::to_string(request.max_phases));
    appendField(out, "exact", request.exact_datapath ? "1" : "0");
    appendField(out, "naive", request.naive_extract ? "1" : "0");
    appendField(out, "laws", request.use_laws ? "1" : "0");
    appendField(out, "unroll",
                std::to_string(request.unroll_max_trip));
    appendField(out, "jobs", std::to_string(request.jobs));
    appendField(out, "pass_cache",
                request.use_pass_cache ? "1" : "0");
    appendField(out, "strict", request.strict ? "1" : "0");
    appendField(out, "deadline",
                formatDouble(request.deadline_seconds));
    appendField(out, "mem_budget",
                std::to_string(request.mem_budget_bytes));
    appendField(out, "validation_runs",
                std::to_string(request.validation_runs));
    appendField(out, "schedule", request.schedule);
    appendField(out, "eval_budget",
                formatDouble(request.eval_budget));
    appendField(out, "schedule_seed",
                std::to_string(request.schedule_seed));
    appendField(out, "time_limit",
                formatDouble(request.time_limit_seconds));
    appendField(out, "stats", request.want_stats ? "1" : "0");
    appendSection(out, "ir", request.ir_text);
    return out;
}

bool
parseRequest(const std::string &text, ServeRequest *request,
             std::string *error)
{
    Reader reader{text};
    std::string line;
    if (!reader.line(line) || line != kRequestMagic)
        return fail(error, "bad request magic");
    *request = ServeRequest();
    while (reader.line(line)) {
        std::string key, value;
        if (!splitField(line, key, value))
            return fail(error, "malformed request line");
        uint64_t u = 0;
        int64_t i = 0;
        double d = 0;
        if (key == "func") {
            request->func = value;
        } else if (key == "rover") {
            request->use_rover = value == "1";
        } else if (key == "control") {
            request->use_control = value == "1";
        } else if (key == "phases") {
            if (!parseInt(value, &i))
                return fail(error, "bad phases");
            request->max_phases = static_cast<int>(i);
        } else if (key == "exact") {
            request->exact_datapath = value == "1";
        } else if (key == "naive") {
            request->naive_extract = value == "1";
        } else if (key == "laws") {
            request->use_laws = value == "1";
        } else if (key == "unroll") {
            if (!parseInt(value, &i))
                return fail(error, "bad unroll");
            request->unroll_max_trip = i;
        } else if (key == "jobs") {
            if (!parseUint(value, &u))
                return fail(error, "bad jobs");
            request->jobs = static_cast<unsigned>(u);
        } else if (key == "pass_cache") {
            request->use_pass_cache = value == "1";
        } else if (key == "strict") {
            request->strict = value == "1";
        } else if (key == "deadline") {
            if (!parseDouble(value, &d))
                return fail(error, "bad deadline");
            request->deadline_seconds = d;
        } else if (key == "mem_budget") {
            if (!parseUint(value, &u))
                return fail(error, "bad mem_budget");
            request->mem_budget_bytes = u;
        } else if (key == "validation_runs") {
            if (!parseInt(value, &i))
                return fail(error, "bad validation_runs");
            request->validation_runs = static_cast<int>(i);
        } else if (key == "schedule") {
            ScheduleKind kind{};
            if (!parseScheduleKind(value, &kind))
                return fail(error, "bad schedule");
            request->schedule = value;
        } else if (key == "eval_budget") {
            if (!parseDouble(value, &d))
                return fail(error, "bad eval_budget");
            request->eval_budget = d;
        } else if (key == "schedule_seed") {
            if (!parseUint(value, &u))
                return fail(error, "bad schedule_seed");
            request->schedule_seed = u;
        } else if (key == "time_limit") {
            if (!parseDouble(value, &d))
                return fail(error, "bad time_limit");
            request->time_limit_seconds = d;
        } else if (key == "stats") {
            request->want_stats = value == "1";
        } else if (key == "ir") {
            if (!parseUint(value, &u))
                return fail(error, "bad ir length");
            if (!reader.bytes(u, request->ir_text))
                return fail(error, "truncated ir section");
            if (reader.pos != text.size())
                return fail(error, "trailing bytes after ir");
            return true;
        } else {
            // Unknown keys are skipped: an older daemon tolerates a
            // newer client's additions.
        }
    }
    return fail(error, "request has no ir section");
}

std::string
serializeResponse(const ServeResponse &response)
{
    std::string out;
    out += kResponseMagic;
    out += '\n';
    appendField(out, "exit", std::to_string(response.exit_code));
    appendField(out, "degraded", response.degraded ? "1" : "0");
    appendField(out, "hits",
                std::to_string(response.pass_cache_hits));
    appendField(out, "misses",
                std::to_string(response.pass_cache_misses));
    appendField(out, "verify_hits",
                std::to_string(response.verify_cache_hits));
    appendField(out, "evals", std::to_string(response.evaluations));
    appendSection(out, "output", response.output_ir);
    appendSection(out, "log", response.log);
    appendSection(out, "stats", response.stats_json);
    appendSection(out, "error", response.error);
    return out;
}

bool
parseResponse(const std::string &text, ServeResponse *response,
              std::string *error)
{
    Reader reader{text};
    std::string line;
    if (!reader.line(line) || line != kResponseMagic)
        return fail(error, "bad response magic");
    *response = ServeResponse();
    size_t sections = 0;
    while (reader.line(line)) {
        std::string key, value;
        if (!splitField(line, key, value))
            return fail(error, "malformed response line");
        uint64_t u = 0;
        if (key == "exit") {
            int64_t i = 0;
            if (!parseInt(value, &i))
                return fail(error, "bad exit");
            response->exit_code = static_cast<int>(i);
        } else if (key == "degraded") {
            response->degraded = value == "1";
        } else if (key == "hits") {
            if (!parseUint(value, &response->pass_cache_hits))
                return fail(error, "bad hits");
        } else if (key == "misses") {
            if (!parseUint(value, &response->pass_cache_misses))
                return fail(error, "bad misses");
        } else if (key == "verify_hits") {
            if (!parseUint(value, &response->verify_cache_hits))
                return fail(error, "bad verify_hits");
        } else if (key == "evals") {
            if (!parseUint(value, &response->evaluations))
                return fail(error, "bad evals");
        } else if (key == "output" || key == "log" ||
                   key == "stats" || key == "error") {
            if (!parseUint(value, &u))
                return fail(error, "bad section length");
            std::string *dest = key == "output" ? &response->output_ir
                                : key == "log"  ? &response->log
                                : key == "stats"
                                    ? &response->stats_json
                                    : &response->error;
            if (!reader.bytes(u, *dest))
                return fail(error, "truncated " + key + " section");
            ++sections;
        } else {
            // Skip unknown fields (forward compatibility).
        }
    }
    if (sections < 4)
        return fail(error, "response missing sections");
    return true;
}

std::string
summarizeRun(const SeerResult &result)
{
    std::ostringstream out;
    if (result.stats.degraded) {
        out << "; DEGRADED: recovered from "
            << result.stats.recovered_errors.size() << " error(s), "
            << result.stats.phase_rollbacks << " phase rollback(s), "
            << result.stats.quarantined_rules.size()
            << " quarantined rule(s); output is still verified IR\n";
    }
    if (result.stats.deadline_hit)
        out << "; deadline hit: exploration cut short\n";
    if (!result.stats.cancel_reason.empty() &&
        result.stats.cancel_reason != "deadline") {
        out << "; canceled (" << result.stats.cancel_reason
            << "): degraded to the best result found\n";
    }
    size_t exhausted = 0;
    for (const ExtractionPhaseStats &phase : result.stats.extraction)
        exhausted += phase.budget_exhaustions;
    if (exhausted > 0) {
        out << "; datapath extraction hit its search budget "
            << exhausted
            << " time(s): result is best-effort, not proven exact\n";
    }
    out << "; e-graph: " << result.stats.egraph_nodes << " nodes, "
        << result.stats.egraph_classes << " classes, "
        << result.stats.unions_applied << " rewrites, "
        << result.stats.total_seconds << "s total ("
        << result.stats.time_in_passes_seconds << "s in passes)\n";
    const ExternalEvalStats &ev = result.stats.external_eval;
    out << "; pass cache: " << ev.pass_cache_hits << " hits, "
        << ev.pass_cache_misses << " misses, " << ev.evaluations
        << " evaluations (" << ev.candidates_deduped << " deduped, "
        << ev.verify_cache_hits << " verify hits)\n";
    return out.str();
}

ServeResponse
runSession(const ServeRequest &request, const SessionEnv &env)
{
    ServeResponse response;
    try {
        ir::Module input = ir::parseModule(request.ir_text);
        ir::verifyOrDie(input);
        std::string func = request.func;
        if (func.empty()) {
            ir::Operation *first = input.firstFunc();
            if (!first)
                fatal("no function in input");
            func = first->strAttr("sym_name");
        }

        SeerOptions options = request.toOptions();
        options.exec = env.exec;
        if (env.max_deadline_seconds > 0 &&
            (options.deadline_seconds <= 0 ||
             options.deadline_seconds > env.max_deadline_seconds))
            options.deadline_seconds = env.max_deadline_seconds;
        // --no-pass-cache means *cold*, even against a warm daemon:
        // such a request runs on its own ephemeral cache and neither
        // reads nor pollutes the shared store.
        if (request.use_pass_cache && env.shared_cache)
            options.shared_eval_cache = env.shared_cache;

        SeerResult result = optimize(input, func, options);

        std::ostringstream printed;
        ir::print(result.module, printed);
        response.output_ir = printed.str();
        response.log = summarizeRun(result);
        if (request.want_stats)
            response.stats_json = toJson(result.stats).dump(2) + "\n";
        const ExternalEvalStats &ev = result.stats.external_eval;
        response.pass_cache_hits = ev.pass_cache_hits;
        response.pass_cache_misses = ev.pass_cache_misses;
        response.verify_cache_hits = ev.verify_cache_hits;
        response.evaluations = ev.evaluations;
        response.degraded = result.stats.degraded;
        response.exit_code = response.degraded ? 3 : 0;
    } catch (const FatalError &err) {
        response.exit_code = 1;
        response.error = err.what();
    } catch (const std::exception &err) {
        response.exit_code = 1;
        response.error = std::string("internal error: ") + err.what();
    }
    return response;
}

} // namespace seer::core
