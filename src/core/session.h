/**
 * @file
 * One optimization request as a transactional session: the unit of
 * work the seer-optd daemon executes, and the serialized form it
 * travels in.
 *
 * A ServeRequest carries the input IR plus the *whitelisted* subset of
 * SeerOptions a client may set — knobs that reshape the server itself
 * (fault plans, injected rules, persistence paths) are not in the wire
 * format by construction, so a client cannot smuggle them in.
 * runSession() is the single execution path shared by `seer-opt`
 * (in-process) and the daemon: parse, verify, optimize under the
 * caller's ExecContext, print. Byte-identical results between the two
 * modes are therefore structural, not aspirational — both modes run
 * exactly this function; the only difference is which process it
 * happens in, and evaluation purity (content-seeded name scopes,
 * alpha-canonical cache keys) makes the process boundary invisible.
 *
 * The wire encoding is a line-oriented header followed by
 * length-prefixed byte sections, so IR text of any shape (including
 * embedded newlines) round-trips exactly. support/json stays
 * write-only: stats travel as an opaque pre-rendered JSON section
 * plus a few parsed-out counters for load generators.
 */
#ifndef SEER_CORE_SESSION_H_
#define SEER_CORE_SESSION_H_

#include <cstdint>
#include <string>

#include "core/seer.h"

namespace seer::core {

/** One optimization request (the client -> daemon payload). */
struct ServeRequest
{
    /** Function to optimize (empty: first function in the module). */
    std::string func;
    /** The textual IR module. */
    std::string ir_text;
    /** Render the stats JSON into the response. */
    bool want_stats = false;

    // Whitelisted SeerOptions subset (mirrors the seer-opt flags).
    bool use_rover = true;
    bool use_control = true;
    int max_phases = 3;
    bool exact_datapath = true;
    bool naive_extract = false;
    bool use_laws = true;
    int64_t unroll_max_trip = 0;
    unsigned jobs = 1;
    /** false: this request runs on a private ephemeral cache instead
     *  of the shared store (the honest cold arm, even against a warm
     *  daemon). */
    bool use_pass_cache = true;
    bool strict = false;
    double deadline_seconds = 0;
    uint64_t mem_budget_bytes = 0;
    /** Co-simulation runs per validation (cache-keyed; the serve bench
     *  raises it to make external evaluation dominate). */
    int validation_runs = 2;
    /** Proposal scheduler ("exhaustive" or "bandit"; mirrors
     *  `seer-opt --schedule`). An unrecognized name fails the request
     *  at parse time rather than silently defaulting. */
    std::string schedule = "exhaustive";
    /** Bandit per-wave cold-evaluation budget (`--eval-budget`). */
    double eval_budget = 1.0;
    /** Bandit replay seed (`--schedule-seed`). */
    uint64_t schedule_seed = 0x5EED;
    /**
     * Egg-runner wall-clock limit per saturation (SeerOptions
     * default: 10). Time-limited exploration is *load-dependent* —
     * a warm cache reaches further in the same seconds, so repeated
     * requests may keep discovering work. Deterministic workloads
     * (the serve bench, differential tests) raise it so saturation
     * always runs to its iteration/node budget instead.
     */
    double time_limit_seconds = 10;

    /** Copy the whitelisted knobs out of a full options struct. */
    static ServeRequest fromOptions(const SeerOptions &options);
    /** Expand back into a full options struct (other fields default). */
    SeerOptions toOptions() const;
};

std::string serializeRequest(const ServeRequest &request);
bool parseRequest(const std::string &text, ServeRequest *request,
                  std::string *error);

/** The daemon -> client payload. */
struct ServeResponse
{
    /** seer-opt exit-code contract: 0 ok, 1 failed, 3 degraded. */
    int exit_code = 0;
    bool degraded = false;
    /** The optimized module, printed (empty on failure). */
    std::string output_ir;
    /** The `; ...` summary lines seer-opt prints to stderr. */
    std::string log;
    /** Fatal diagnostic (exit_code 1). */
    std::string error;
    /** Rendered stats JSON (when the request asked for it). */
    std::string stats_json;
    // Cache counters of this request (a delta, not the store level) —
    // parsed fields so load generators need no JSON parser.
    uint64_t pass_cache_hits = 0;
    uint64_t pass_cache_misses = 0;
    uint64_t verify_cache_hits = 0;
    uint64_t evaluations = 0;
};

std::string serializeResponse(const ServeResponse &response);
bool parseResponse(const std::string &text, ServeResponse *response,
                   std::string *error);

/** What the host (daemon or CLI) provides to a session. */
struct SessionEnv
{
    /** Shared warm cache (null: per-request private cache). */
    EvalCachePtr shared_cache;
    /**
     * Per-request governance context. The host owns it: the daemon
     * wires client-disconnect cancellation to it, the CLI its signal
     * handler. The request's deadline/mem budget are applied on top.
     */
    ExecContext exec;
    /** Clamp client deadlines to this many seconds (0 = no clamp). */
    double max_deadline_seconds = 0;
};

/**
 * Execute one request end to end. Never throws: fatal errors land in
 * response.error with exit_code 1; a canceled/degraded run returns
 * the degraded-mode result with exit_code 3, exactly like `seer-opt`.
 */
ServeResponse runSession(const ServeRequest &request,
                         const SessionEnv &env);

/** The `; ...` stderr summary of one optimize() run — shared by
 *  seer-opt (in-process) and runSession so both modes print the same
 *  bytes for the same run. */
std::string summarizeRun(const SeerResult &result);

} // namespace seer::core

#endif // SEER_CORE_SESSION_H_
