/**
 * @file
 * seer_perfbench: run one workload from a seed for a given time, check
 * every output, and print the metrics as the last line of stdout.
 *
 *   seer_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--size N] [--work-dir DIR] [--commit SHA]
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced passes, prints the per-layer metrics of the first
 * traced pass plus the tracing overhead, and writes the span dump and
 * layer breakdown to the report file in --work-dir.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

#include "bench.h"

namespace {

using namespace perfbench;
namespace json = seer::json;

/** Set-ups before the passes; setup_s is the median of all set-ups. */
constexpr int kSetupRepeats = 20;
/**
 * Tolerance of the accounting check: the benchmark's span around
 * core::optimize must match saturate + extract + other (= the run's own
 * total_seconds) within 20 ms + 5 % of the span.
 */
constexpr double kReconcileAbsSeconds = 0.020;
constexpr double kReconcileRel = 0.05;

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

/** Linear-interpolated percentile, p in [0, 1]. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double rank = p * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] +
           (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

json::Value
hostJson(const std::string &commit)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int allowed = sched_getaffinity(0, sizeof(set), &set) == 0
                      ? CPU_COUNT(&set)
                      : 0;
    json::Value host{json::Object{}};
    host.set("nproc", static_cast<int64_t>(allowed));
    host.set("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
    host.set("build_type", PERFBENCH_BUILD_TYPE);
    host.set("compiler", PERFBENCH_COMPILER);
    host.set("cxx_flags", PERFBENCH_CXX_FLAGS);
    host.set("sanitizers", "none");
    host.set("git_commit", commit);
    return host;
}

double
peakRssMb()
{
    rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
usage()
{
    std::cerr << "usage: seer_perfbench --workload {";
    for (size_t i = 0; i < workloadNames().size(); ++i)
        std::cerr << (i ? "," : "") << workloadNames()[i];
    std::cerr << "} --seed N --seconds S --trace 0|1 [--size N]"
                 " [--work-dir DIR] [--commit SHA]\n";
}

bool
parseArgs(int argc, char **argv, RunConfig &config, std::string &commit)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                config.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                config.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                config.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return false;
                config.trace = value == "1";
            } else if (flag == "--size") {
                config.size = std::stoul(value);
            } else if (flag == "--work-dir") {
                config.work_dir = value;
            } else if (flag == "--commit") {
                commit = value;
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return have_workload && config.seconds > 0;
}

/** A pass: its samples' range in the run's sample list. */
struct Pass
{
    bool traced = false;
    double wall = 0;
    size_t begin = 0, end = 0;
};

/** The checks that hold for every workload. */
void
checkSamples(Workload &workload, std::vector<Sample> &samples,
             json::Value &metrics)
{
    for (Sample &sample : samples) {
        if (!sample.error.empty())
            continue;
        if (sample.layers.degraded) {
            sample.error = "degraded result";
            continue;
        }
        if (!workload.inProcess())
            continue;
        // saturate + extract + other == total_seconds by definition of
        // other; the check is that the outside span agrees with it.
        const Layers &l = sample.layers;
        double accounted = l.saturate + l.extract + l.other();
        if (std::abs(l.optimize_span - accounted) >
            kReconcileAbsSeconds + kReconcileRel * l.optimize_span)
            sample.error = "layer sum " + std::to_string(accounted) +
                           " s does not account for core.optimize " +
                           std::to_string(l.optimize_span) + " s";
    }

    // The first good sample of each program is the reference the
    // workload checks; every other sample must repeat it exactly.
    std::map<std::string, size_t> reference;
    for (size_t i = 0; i < samples.size(); ++i) {
        if (samples[i].error.empty())
            reference.emplace(samples[i].program, i);
    }
    workload.check(samples, metrics);
    for (size_t i = 0; i < samples.size(); ++i) {
        Sample &sample = samples[i];
        auto it = reference.find(sample.program);
        if (!sample.error.empty() || it == reference.end() ||
            it->second == i)
            continue;
        const Sample &first = samples[it->second];
        // In-process runs use a fresh pass cache per call, so cold
        // evaluations repeat exactly. The daemon's shared cache turns
        // some into hits (and changes how often it is consulted), so
        // there only nodes and unions must repeat.
        auto evaluations = [&](const Layers &l) {
            return workload.inProcess() ? l.evaluations : 0;
        };
        auto countsOf = [&](const Layers &l) {
            return std::to_string(l.nodes) + "/" + std::to_string(l.unions) +
                   "/" + std::to_string(evaluations(l));
        };
        if (sample.output != first.output)
            sample.error = "output differs from the program's first output";
        else if (sample.layers.nodes != first.layers.nodes ||
                 sample.layers.unions != first.layers.unions ||
                 evaluations(sample.layers) != evaluations(first.layers))
            sample.error =
                "deterministic counts (nodes/unions/evaluations) " +
                countsOf(sample.layers) + " differ from the first run's " +
                countsOf(first.layers);
        else if (!first.error.empty())
            sample.error = "same output as a failed run: " + first.error;
    }
}

/** Sum of the per-layer quantities over one pass. */
struct LayerTotals
{
    Layers sum;
    double seconds = 0;      ///< sum of request times
    double server_overhead = 0;
};

LayerTotals
totalsOf(const std::vector<Sample> &samples, const Pass &pass)
{
    LayerTotals totals;
    Layers &s = totals.sum;
    for (size_t i = pass.begin; i < pass.end; ++i) {
        const Sample &sample = samples[i];
        const Layers &l = sample.layers;
        totals.seconds += sample.seconds;
        totals.server_overhead += sample.seconds - l.total;
        s.parse += l.parse;
        s.print += l.print;
        s.optimize_span += l.optimize_span;
        s.total += l.total;
        s.saturate += l.saturate;
        s.search += l.search;
        s.apply += l.apply;
        s.emit += l.emit;
        s.pass += l.pass;
        s.translate += l.translate;
        s.verify += l.verify;
        s.schedule += l.schedule;
        s.extract += l.extract;
        s.match_candidates += l.match_candidates;
        s.evaluations += l.evaluations;
        s.pass_hits += l.pass_hits;
        s.pass_misses += l.pass_misses;
        s.expansions += l.expansions;
        s.exhaustions += l.exhaustions;
        s.nodes += l.nodes;
        s.unions += l.unions;
        s.evictions += l.evictions;
        s.peak_mb = std::max(s.peak_mb, l.peak_mb);
        s.resident_mb = std::max(s.resident_mb, l.resident_mb);
    }
    return totals;
}

void
putLayerMetrics(const LayerTotals &totals, double trace_overhead,
                json::Value &metrics)
{
    const Layers &s = totals.sum;
    double lookups = static_cast<double>(s.pass_hits + s.pass_misses);
    auto d = [](uint64_t v) { return static_cast<double>(v); };
    putMetric(metrics, "ir.parse_s", s.parse, "s");
    putMetric(metrics, "ir.print_s", s.print, "s");
    putMetric(metrics, "core.optimize_s",
              s.optimize_span > 0 ? s.optimize_span : s.total, "s");
    putMetric(metrics, "core.saturate_s", s.saturate, "s");
    putMetric(metrics, "core.other_s", s.other(), "s");
    putMetric(metrics, "egraph.search_s", s.search, "s");
    putMetric(metrics, "egraph.match_candidates", d(s.match_candidates),
              "count");
    putMetric(metrics, "egraph.apply_s", s.apply, "s");
    putMetric(metrics, "egraph.rebuild_s", s.rebuild(), "s");
    putMetric(metrics, "core.propose_merge_s", s.proposeMerge(), "s");
    putMetric(metrics, "seerlang.emit_s", s.emit, "s");
    putMetric(metrics, "passes.pass_s", s.pass, "s");
    putMetric(metrics, "seerlang.translate_s", s.translate, "s");
    putMetric(metrics, "core.verify_s", s.verify, "s");
    putMetric(metrics, "hls.schedule_s", s.schedule, "s");
    putMetric(metrics, "core.evaluations", d(s.evaluations), "count");
    putMetric(metrics, "core.pass_cache_hit_rate",
              lookups > 0 ? d(s.pass_hits) / lookups : 0, "ratio");
    putMetric(metrics, "egraph.extract_s", s.extract, "s");
    putMetric(metrics, "egraph.extract_expansions", d(s.expansions),
              "count");
    putMetric(metrics, "egraph.extract_budget_exhaustions",
              d(s.exhaustions), "count");
    putMetric(metrics, "egraph.nodes", d(s.nodes), "count");
    putMetric(metrics, "egraph.unions", d(s.unions), "count");
    putMetric(metrics, "support.peak_mb", s.peak_mb, "MB");
    putMetric(metrics, "support.cache_evictions", d(s.evictions), "count");
    putMetric(metrics, "support.cache_resident_mb", s.resident_mb, "MB");
    putMetric(metrics, "core.server_overhead_ms",
              totals.server_overhead * 1e3, "ms");
    putMetric(metrics, "bench.trace_overhead", trace_overhead, "ratio");
}

/**
 * Self time per layer over one traced pass: each span's duration minus
 * its children's, then the span that holds optimize()'s work (the
 * benchmark's core.optimize span in-process, the client's socket wait
 * for the daemon) split further by the SeerStats counters. The entries
 * sum to the pass's request time.
 */
std::vector<std::pair<std::string, double>>
breakdown(const std::vector<Span> &spans, const LayerTotals &totals,
          bool in_process)
{
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i) {
        double duration = spans[i].end - spans[i].start;
        self[spans[i].name] += duration;
        if (spans[i].parent >= 0)
            self[spans[static_cast<size_t>(spans[i].parent)].name] -=
                duration;
    }
    const Layers &s = totals.sum;
    // What optimize() accounts for itself comes out of the host span.
    self[in_process ? "core.optimize" : "support.recv"] -= s.total;
    self["core.other"] += s.other();
    self["core.saturate (rebuild)"] += s.rebuild();
    self["egraph.search"] += s.search;
    self["egraph.apply (propose+merge)"] += s.proposeMerge();
    self["seerlang.emit"] += s.emit;
    self["passes.pass"] += s.pass;
    self["seerlang.translate"] += s.translate;
    self["core.verify"] += s.verify;
    self["hls.schedule"] += s.schedule;
    self["egraph.extract"] += s.extract;
    std::vector<std::pair<std::string, double>> rows(self.begin(),
                                                     self.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second > b.second;
    });
    return rows;
}

json::Value
spansJson(const std::vector<Span> &spans)
{
    json::Value out{json::Array{}};
    for (const Span &span : spans) {
        json::Value entry{json::Object{}};
        entry.set("name", span.name);
        entry.set("start_s", span.start);
        entry.set("end_s", span.end);
        entry.set("parent", static_cast<int64_t>(span.parent));
        entry.set("request", span.request);
        out.push(std::move(entry));
    }
    return out;
}

int
run(const RunConfig &config, const std::string &commit,
    Clock::time_point process_start)
{
    std::unique_ptr<Workload> workload = makeWorkload(config);
    if (!workload) {
        usage();
        return 2;
    }
    Tracer tracer(process_start);

    // Set-up: the first one counts from process start.
    std::vector<double> setup_times;
    workload->setup();
    setup_times.push_back(secondsBetween(process_start, Clock::now()));
    for (int i = 1; i < kSetupRepeats; ++i) {
        workload->teardown();
        Clock::time_point begin = Clock::now();
        workload->setup();
        setup_times.push_back(secondsBetween(begin, Clock::now()));
    }

    // Whole passes until the time is up. A traced run alternates
    // untraced/traced passes (order swapped every pair) and ends on a
    // complete pair, so the two halves cover the same work.
    std::vector<Sample> samples;
    std::vector<Pass> passes;
    size_t first_traced_spans = 0;
    double peak_rss_mb = 0;
    Clock::time_point run_begin = Clock::now();
    while (true) {
        size_t p = passes.size();
        if (p > 0) {
            workload->teardown();
            Clock::time_point begin = Clock::now();
            workload->setup();
            setup_times.push_back(secondsBetween(begin, Clock::now()));
        }
        Pass pass;
        pass.traced = config.trace && ((p % 2 == 1) != ((p / 2) % 2 == 1));
        tracer.setEnabled(pass.traced);
        Clock::time_point begin = Clock::now();
        std::vector<Sample> pass_samples = workload->runPass(tracer);
        pass.wall = secondsBetween(begin, Clock::now());
        tracer.setEnabled(false);
        if (pass.traced && first_traced_spans == 0)
            first_traced_spans = tracer.spans().size();
        pass.begin = samples.size();
        for (Sample &sample : pass_samples) {
            sample.pass = p;
            samples.push_back(std::move(sample));
        }
        pass.end = samples.size();
        passes.push_back(pass);
        // In process, a pass is one thread running every program once,
        // as a user compiling the set would; later passes take
        // paper_kernels to 55 or 62 MB from one run to the next
        // (README.md), so the first pass is the one measured. The
        // daemon's peak depends on which requests overlap, and its
        // maximum over all passes is what repeats.
        if (p == 0 || !workload->inProcess())
            peak_rss_mb = peakRssMb();
        bool time_up = secondsBetween(run_begin, Clock::now()) >=
                       config.seconds;
        if (time_up && (!config.trace || passes.size() % 2 == 0))
            break;
    }

    // The design metrics come out of the check; a traced run drops them.
    json::Value metrics{json::Object{}};
    json::Value unused{json::Object{}};
    checkSamples(*workload, samples, config.trace ? unused : metrics);
    int64_t failed = 0;
    for (const Sample &sample : samples) {
        if (sample.error.empty())
            continue;
        if (failed++ < 5)
            std::cerr << "seer_perfbench: " << sample.program << " (pass "
                      << sample.pass << "): " << sample.error << "\n";
    }

    json::Value report{json::Object{}};
    json::Value host = hostJson(commit);
    std::cout << "host " << host.dump() << "\n";
    report.set("host", std::move(host));
    report.set("workload", config.workload);
    report.set("seed", config.seed);
    report.set("trace", config.trace);
    report.set("passes", static_cast<int64_t>(passes.size()));

    // Per-program rows (best time over the run's samples, as below; not
    // gated).
    std::map<std::string, std::vector<double>> per_program;
    for (const Pass &pass : passes) {
        for (size_t i = pass.begin; i < pass.end; ++i) {
            if (pass.traced == config.trace)
                per_program[samples[i].program].push_back(
                    samples[i].seconds);
        }
    }
    json::Value rows{json::Array{}};
    for (const auto &[program, times] : per_program) {
        double best = *std::min_element(times.begin(), times.end());
        std::cout << "row " << program << " compile_s=" << best
                  << " samples=" << times.size() << "\n";
        json::Value row{json::Object{}};
        row.set("program", program);
        row.set("compile_s", best);
        rows.push(std::move(row));
    }
    report.set("rows", std::move(rows));
    // Every sample's time, for checking the estimators offline.
    json::Value raw{json::Array{}};
    for (const Sample &sample : samples) {
        json::Value entry{json::Object{}};
        entry.set("program", sample.program);
        entry.set("pass", static_cast<int64_t>(sample.pass));
        entry.set("traced", sample.traced);
        entry.set("seconds", sample.seconds);
        raw.push(std::move(entry));
    }
    report.set("samples", std::move(raw));

    if (!config.trace) {
        // Every pass runs the same programs in the same order, so a
        // position in the pass is one program (daemon: one request).
        // Its time is its best over the run's passes: host interference
        // only ever adds time, and on a shared host it comes and goes
        // within seconds, so the fastest of several passes spread over
        // the run repeats from run to run where a mean or a median
        // carries whatever load the run happened to meet.
        std::vector<double> best(passes[0].end - passes[0].begin,
                                 std::numeric_limits<double>::infinity());
        double best_throughput = 0;
        for (const Pass &pass : passes) {
            double sum = 0;
            for (size_t i = pass.begin; i < pass.end; ++i) {
                sum += samples[i].seconds;
                best[i - pass.begin] =
                    std::min(best[i - pass.begin], samples[i].seconds);
            }
            // Little's law for a closed loop: clients / mean latency. It
            // leaves out the idle tail at the end of each pass and, in
            // process, the benchmark's own bookkeeping between calls.
            best_throughput = std::max(
                best_throughput,
                workload->clients() *
                    static_cast<double>(pass.end - pass.begin) / sum);
        }
        double compile = 0;
        std::vector<double> latencies_ms;
        for (double seconds : best) {
            compile += seconds;
            latencies_ms.push_back(seconds * 1e3);
        }
        putMetric(metrics, "setup_s", median(setup_times), "s");
        putMetric(metrics, "compile_s", compile, "s");
        putMetric(metrics, "latency_p50_ms", percentile(latencies_ms, 0.5),
                  "ms");
        putMetric(metrics, "latency_p90_ms", percentile(latencies_ms, 0.9),
                  "ms");
        putMetric(metrics, "throughput_rps", best_throughput, "req/s");
        putMetric(metrics, "peak_rss_mb", peak_rss_mb, "MB");
    } else {
        const Pass *first_traced = nullptr;
        double traced_wall = 0, untraced_wall = 0;
        for (const Pass &pass : passes) {
            (pass.traced ? traced_wall : untraced_wall) += pass.wall;
            if (pass.traced && !first_traced)
                first_traced = &pass;
        }
        LayerTotals totals = totalsOf(samples, *first_traced);
        putLayerMetrics(totals, traced_wall / untraced_wall, metrics);
        std::vector<Span> spans = tracer.spans();
        std::vector<Span> first(spans.begin(),
                                spans.begin() + static_cast<std::ptrdiff_t>(
                                                    first_traced_spans));
        json::Value layers{json::Array{}};
        for (const auto &[layer, seconds] :
             breakdown(first, totals, workload->inProcess())) {
            double share = totals.seconds > 0 ? seconds / totals.seconds : 0;
            std::cout << "layer " << layer << " self_s=" << seconds
                      << " share=" << share << "\n";
            json::Value entry{json::Object{}};
            entry.set("layer", layer);
            entry.set("self_s", seconds);
            entry.set("share", share);
            layers.push(std::move(entry));
        }
        report.set("breakdown", std::move(layers));
        report.set("spans", spansJson(spans));
    }

    json::Value result{json::Object{}};
    result.set("correct", failed == 0);
    result.set("attempted", static_cast<int64_t>(samples.size()));
    result.set("failed", failed);
    result.set("metrics", std::move(metrics));
    report.set("result", result);

    std::string path = config.work_dir + "/report-" + config.workload +
                       "-seed" + std::to_string(config.seed) + "-trace" +
                       (config.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << report.dump(1) << "\n";
    if (!out) {
        std::cerr << "seer_perfbench: cannot write " << path << "\n";
        return 1;
    }
    std::cout << "report " << path << "\n";
    std::cout << result.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Clock::time_point process_start = Clock::now();
    RunConfig config;
    std::string commit = "unknown";
    if (!parseArgs(argc, argv, config, commit)) {
        usage();
        return 2;
    }
    if (sanitizedBuild()) {
        std::cerr << "seer_perfbench: refusing to report numbers from a "
                     "sanitizer build (flags: "
                  << PERFBENCH_CXX_FLAGS << ")\n";
        return 2;
    }
    try {
        return run(config, commit, process_start);
    } catch (const std::exception &err) {
        std::cerr << "seer_perfbench: " << err.what() << "\n";
        return 1;
    }
}
