/**
 * @file
 * Shared pieces of the end-to-end benchmark: the span tracer, the
 * per-layer quantities read back from a run's stats JSON, the timed
 * sample of one program, and the workload interface.
 *
 * Layers are measured from outside only: spans wrap the benchmark's own
 * calls into public functions (ir::parseModule, core::optimize,
 * ir::toString, the OptServer socket round trip), and everything below
 * core::optimize comes from the counters it already returns in
 * SeerStats.
 */
#ifndef SEER_PERFBENCH_BENCH_H_
#define SEER_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** Spans of a traced pass, kept in memory and written out at the end. */
struct Span
{
    const char *name = "";
    double start = 0; ///< seconds since the tracer's origin
    double end = 0;
    int parent = -1;  ///< index into the span list, -1 for a root
    uint64_t request = 0;
};

/** Thread-safe span recorder; begin() is a no-op while disabled. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    /** Only flip between passes, while no other thread records. */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Index of the new span, or -1 while disabled. */
    int begin(const char *name, int parent, uint64_t request);
    void end(int span);

    std::vector<Span> spans() const;

  private:
    Clock::time_point origin_;
    bool enabled_ = false;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, int parent,
               uint64_t request)
        : tracer_(tracer), id_(tracer.begin(name, parent, request))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

/**
 * Per-layer quantities of one optimize() run. Seconds below
 * core::optimize come from its stats; parse/print/optimize_span are
 * the benchmark's own spans (zero where a layer is not visible from
 * the benchmark's side of the call).
 */
struct Layers
{
    // Benchmark-side spans, seconds.
    double parse = 0;
    double print = 0;
    double optimize_span = 0;
    // From the stats JSON, seconds.
    double total = 0;    ///< total_seconds (optimize()'s own clock)
    double saturate = 0; ///< sum of iterations[].seconds
    double search = 0;   ///< sum of rules[].search_seconds
    double apply = 0;    ///< sum of rules[].apply_seconds
    double emit = 0, pass = 0, translate = 0, verify = 0, schedule = 0;
    double extract = 0;  ///< sum of extraction[].seconds
    // Counts.
    uint64_t match_candidates = 0;
    uint64_t evaluations = 0;
    uint64_t pass_hits = 0, pass_misses = 0;
    uint64_t expansions = 0, exhaustions = 0;
    uint64_t nodes = 0, unions = 0;
    uint64_t evictions = 0;
    double peak_mb = 0;     ///< resource.peak_bytes
    double resident_mb = 0; ///< external_eval.resident_bytes
    bool degraded = false;

    double rebuild() const { return saturate - search - apply; }
    double evalStages() const
    {
        return emit + pass + translate + verify + schedule;
    }
    /** Upper bound on propose + merge: apply minus the eval stages. */
    double proposeMerge() const { return apply - evalStages(); }
    /** OptimizeDriver bookkeeping, HLS oracle seeding, to-term, emission. */
    double other() const { return total - saturate - extract; }
};

/** Fill the stats-derived fields of `out` from core::toJson(SeerStats)
 *  text, keeping its span fields; false on bad JSON. Called outside
 *  the timed window. */
bool layersFromStatsJson(const std::string &text, Layers *out,
                         std::string *error);

/** One timed operation: a program through IR in -> IR out. */
struct Sample
{
    std::string program; ///< stable id (kernel name, corpus#N)
    size_t pass = 0;     ///< index of the pass that ran it
    bool traced = false;
    double seconds = 0;  ///< compile time / client latency
    Layers layers;
    std::string output;  ///< IR text out
    std::string error;   ///< non-empty: the operation failed
};

/** Options of one benchmark process. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Programs per pass (0: the workload's default size). */
    size_t size = 0;
    /** Scratch directory inside the checkout (socket, report). */
    std::string work_dir = ".";
};

/**
 * One workload. main.cc calls setup() several times (median =
 * setup_s), then alternates setup()/runPass() until the run's time is
 * up, then check() once, untimed. teardown() runs before each repeated
 * setup().
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Generate and parse the inputs (and start the server). */
    virtual void setup() = 0;
    /** Undo setup() before the next one (untimed). */
    virtual void teardown() {}
    /** One timed pass over every program of the workload. */
    virtual std::vector<Sample> runPass(Tracer &tracer) = 0;
    /** Verify outputs; sets Sample::error on each failed operation and
     *  adds workload-specific end-to-end metrics to `metrics`. */
    virtual void check(std::vector<Sample> &samples,
                       seer::json::Value &metrics) = 0;
    /** Whether e2e time is per-program compile time (in-process) or
     *  client-observed request latency (daemon). */
    virtual bool inProcess() const = 0;
    /** Closed-loop clients issuing the pass (1 in-process). */
    virtual unsigned clients() const { return 1; }
};

std::unique_ptr<Workload> makeWorkload(const RunConfig &config);

/** Names accepted by makeWorkload. */
const std::vector<std::string> &workloadNames();

/** Add {"value": v, "unit": u} under `name`. */
void putMetric(seer::json::Value &metrics, const std::string &name,
               double value, const std::string &unit);

} // namespace perfbench

#endif // SEER_PERFBENCH_BENCH_H_
