#include "common.h"

#include <cmath>
#include <sstream>

#include "hls/pragmas.h"
#include "ir/verifier.h"

namespace seer::benchx {

namespace {

/**
 * Egg-runner time limit for every flow: high enough that saturation
 * always stops on its iteration and node budgets, so the tables depend
 * only on the input, never on host speed or load (the golden
 * differentials do the same).
 */
constexpr double kNoTimeLimit = 1e6;

} // namespace

hls::HlsReport
evaluateDesign(const ir::Module &module,
               const bench::Benchmark &benchmark, bool pipeline_loops,
               uint64_t seed)
{
    std::vector<ir::Buffer> buffers =
        bench::makeBuffers(module, benchmark.func);
    Rng rng(seed);
    benchmark.prepare(buffers, rng);
    std::vector<ir::RtValue> args;
    for (ir::Buffer &buffer : buffers)
        args.push_back(&buffer);
    hls::HlsOptions options;
    options.schedule.pipeline_loops = pipeline_loops;
    return hls::evaluate(module, benchmark.func, std::move(args),
                         options);
}

ir::Module
baselineModule(const bench::Benchmark &benchmark)
{
    return bench::parseBenchmark(benchmark);
}

core::SeerResult
roverOnlyFlow(const bench::Benchmark &benchmark)
{
    ir::Module input = bench::parseBenchmark(benchmark);
    core::SeerOptions options;
    options.use_control = false;
    options.runner.time_limit_seconds = kNoTimeLimit;
    return core::optimize(input, benchmark.func, options);
}

core::SeerResult
seerControlOnlyFlow(const bench::Benchmark &benchmark)
{
    ir::Module input = bench::parseBenchmark(benchmark);
    core::SeerOptions options;
    options.use_rover = false;
    options.unroll_max_trip = benchmark.unroll_max_trip;
    options.runner.time_limit_seconds = kNoTimeLimit;
    return core::optimize(input, benchmark.func, options);
}

core::SeerResult
seerFlow(const bench::Benchmark &benchmark,
         const core::SeerOptions &base)
{
    ir::Module input = bench::parseBenchmark(benchmark);
    core::SeerOptions options = base;
    options.unroll_max_trip = benchmark.unroll_max_trip;
    options.runner.time_limit_seconds = kNoTimeLimit;
    return core::optimize(input, benchmark.func, options);
}

ir::Module
pragmaFlow(const bench::Benchmark &benchmark)
{
    ir::Module module = bench::parseBenchmark(benchmark);
    hls::applyPragmas(module);
    ir::verifyOrDie(module);
    return module;
}

std::string
ratio(double value, double base)
{
    std::ostringstream os;
    double r = base == 0 ? 0 : value / base;
    os.precision(r >= 10 ? 3 : 2);
    os << std::fixed << r << "x";
    return os.str();
}

std::string
fmt(double value, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    if (value != 0 && (std::abs(value) >= 1e6 || std::abs(value) < 1e-2))
        os << std::scientific;
    os << value;
    return os.str();
}

std::string
fmtInt(uint64_t value)
{
    return std::to_string(value);
}

} // namespace seer::benchx
