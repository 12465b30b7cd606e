/**
 * @file
 * The three workloads. Each pass runs a fixed program set, so every
 * seed measures the same amount of work; the seed sets the order, the
 * check inputs and (daemon) which requests repeat. See README.md for
 * why each workload exists and which layers it stresses.
 */
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <unistd.h>

#include "bench.h"
#include "benchmarks/benchmarks.h"
#include "core/seer.h"
#include "core/server.h"
#include "core/session.h"
#include "corpus/generator.h"
#include "hls/hls.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/rng.h"
#include "support/socket.h"

namespace perfbench {
namespace {

using namespace seer;

/**
 * Every workload lifts the egg-runner wall-clock limit, as the golden
 * differentials do: exploration is then capped by iterations and nodes
 * only, so a faster saturate finishes sooner instead of exploring
 * further, and the design metrics do not drift with host load.
 */
constexpr double kNoTimeLimit = 1e6;

/** Corpus programs per pass, and the generator seeds they start at. */
constexpr size_t kCorpusPrograms = 120;
constexpr uint64_t kCorpusBase = 0;
/** Distinct daemon programs per pass; each is sent twice. */
constexpr size_t kDaemonPrograms = 64;
constexpr uint64_t kDaemonBase = 1000000;
/** Daemon shape: 2 closed-loop clients against 2 session workers. */
constexpr unsigned kDaemonClients = 2;
constexpr unsigned kDaemonWorkers = 2;
/** Shared-cache byte budget, below a pass's working set, so inserts
 *  also evict. */
constexpr uint64_t kDaemonCacheBytes = 256ull << 10;
/** Check runs per corpus/daemon program (seeded inputs). */
constexpr int kCheckRuns = 2;

/**
 * Small programs: the default generator shape reaches multi-second
 * saturations on a tail of its programs; this one keeps the median
 * program in the tens of milliseconds, where per-call costs show.
 */
corpus::GeneratorOptions
smallShape()
{
    corpus::GeneratorOptions shape;
    shape.max_top_statements = 2;
    shape.max_loop_body = 1;
    shape.max_expr_depth = 2;
    return shape;
}

/**
 * The daemon's programs: loop bodies of up to two statements. About a
 * sixth of its requests then take longer than two steps of the
 * server's 20 ms disconnect watcher (README.md), so latency_p90_ms
 * falls among programs of spread-out cost rather than on the edge of
 * the 40 ms step.
 */
corpus::GeneratorOptions
daemonShape()
{
    corpus::GeneratorOptions shape = smallShape();
    shape.max_loop_body = 2;
    return shape;
}

core::SeerOptions
benchOptions()
{
    core::SeerOptions options;
    options.runner.time_limit_seconds = kNoTimeLimit;
    options.jobs = 1;
    return options;
}

template <typename T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

std::string
firstFuncName(const ir::Module &module)
{
    ir::Operation *func = module.firstFunc();
    if (!func)
        throw std::runtime_error("no function in program");
    return func->strAttr("sym_name");
}

/** Parse and verify an input program (set-up work). */
ir::Module
parseInput(const std::string &text)
{
    ir::Module module = ir::parseModule(text);
    ir::verifyOrDie(module);
    return module;
}

/** IR text in -> core::optimize -> IR text out, spans around each call. */
Sample
compileInProcess(const std::string &program, const std::string &text,
                 const std::string &func,
                 const core::SeerOptions &options, Tracer &tracer,
                 uint64_t request)
{
    Sample sample;
    sample.program = program;
    sample.traced = tracer.enabled();
    Clock::time_point begin = Clock::now();
    Clock::time_point parsed, optimized, printed;
    try {
        ir::Module input;
        core::SeerResult result;
        {
            ScopedSpan root(tracer, "request", -1, request);
            {
                ScopedSpan span(tracer, "ir.parse", root.id(), request);
                input = ir::parseModule(text);
                parsed = Clock::now();
            }
            {
                ScopedSpan span(tracer, "core.optimize", root.id(),
                                request);
                result = core::optimize(input, func, options);
                optimized = Clock::now();
            }
            {
                ScopedSpan span(tracer, "ir.print", root.id(), request);
                sample.output = ir::toString(result.module);
                printed = Clock::now();
            }
        }
        sample.seconds = secondsBetween(begin, printed);
        std::string error;
        if (!layersFromStatsJson(core::toJson(result.stats).dump(),
                                 &sample.layers, &error))
            sample.error = error;
    } catch (const std::exception &err) {
        sample.seconds = secondsBetween(begin, Clock::now());
        sample.error = std::string("threw: ") + err.what();
    }
    // Hand freed heap back between programs, so peak_rss_mb is the
    // largest single program's peak (one seer-opt process per program)
    // instead of depending on the seeded order.
    malloc_trim(0);
    sample.layers.parse = secondsBetween(begin, parsed);
    sample.layers.optimize_span = secondsBetween(parsed, optimized);
    sample.layers.print = secondsBetween(optimized, printed);
    return sample;
}

/** Arguments for one run of `func`: seeded buffers and scalars. */
struct Workspace
{
    std::vector<std::unique_ptr<ir::Buffer>> buffers;
    std::vector<ir::RtValue> args;

    Workspace(const ir::Module &module, const std::string &func,
              uint64_t seed)
    {
        ir::Block &body = module.lookupFunc(func)->region(0).block();
        Rng rng(seed);
        for (size_t i = 0; i < body.numArgs(); ++i) {
            ir::Type type = body.arg(i).type();
            if (type.isMemRef()) {
                buffers.push_back(std::make_unique<ir::Buffer>(type));
                ir::Buffer &buffer = *buffers.back();
                unsigned width =
                    type.elementType().isScalar()
                        ? type.elementType().bitwidth()
                        : 32;
                for (int64_t &v : buffer.ints)
                    v = ir::wrapToWidth(rng.nextRange(-40, 40), width);
                for (double &v : buffer.floats)
                    v = rng.nextDouble() * 4 - 2;
                args.push_back(&buffer);
            } else if (type.isIndex()) {
                args.push_back(rng.nextRange(0, 3));
            } else if (type.isInteger()) {
                args.push_back(
                    ir::wrapToWidth(rng.nextRange(-40, 40),
                                    type.bitwidth()));
            } else {
                args.push_back(rng.nextDouble() * 4 - 2);
            }
        }
    }

    std::vector<int64_t> state() const
    {
        std::vector<int64_t> out;
        for (const auto &buffer : buffers) {
            out.insert(out.end(), buffer->ints.begin(),
                       buffer->ints.end());
            for (double d : buffer->floats)
                out.push_back(static_cast<int64_t>(d * (1 << 20)));
        }
        return out;
    }
};

/** Design quality of one checked output (geomean inputs). */
struct Design
{
    double cycles = 0;
    double area = 0;
};

/**
 * Interpret the input program, co-simulate the output with the HLS
 * model on the same seeded arguments, and compare final memory.
 * Empty string on success; `design` gets the HLS report.
 */
std::string
checkAgainstInput(const std::string &input_text,
                  const std::string &output_text, uint64_t seed,
                  Design *design)
{
    try {
        ir::Module input = parseInput(input_text);
        ir::Module output = parseInput(output_text);
        std::string func = firstFuncName(input);
        for (int run = 0; run < kCheckRuns; ++run) {
            uint64_t run_seed = seed + 0x9E3779B97F4A7C15ull * run;
            Workspace expected(input, func, run_seed);
            ir::interpret(input, func, expected.args);
            Workspace actual(output, func, run_seed);
            hls::HlsReport report =
                hls::evaluate(output, func, actual.args);
            if (actual.state() != expected.state())
                return "final memory differs from the input program's";
            if (run == 0) {
                design->cycles = static_cast<double>(report.total_cycles);
                design->area = report.area_um2;
            }
        }
    } catch (const std::exception &err) {
        return std::string("check threw: ") + err.what();
    }
    return "";
}

/** Put the geomean design metrics of the checked outputs. */
void
putDesignMetrics(const std::vector<Design> &designs,
                 seer::json::Value &metrics)
{
    double log_cycles = 0, log_area = 0;
    for (const Design &design : designs) {
        log_cycles += std::log(std::max(design.cycles, 1.0));
        log_area += std::log(std::max(design.area, 1e-9));
    }
    double n = designs.empty() ? 1 : static_cast<double>(designs.size());
    putMetric(metrics, "design_cycles_geomean", std::exp(log_cycles / n),
              "cycles");
    putMetric(metrics, "design_area_geomean", std::exp(log_area / n),
              "um2");
}

// --- paper_kernels ----------------------------------------------------------

/** The nine kernels, cheapest first: --size N runs the first N. */
const char *const kKernelsByCost[] = {
    "seq_loops", "gemm_blocked", "sort_radix", "sort_merge",
    "gemm_ncubed", "kmp", "md_grid", "md_knn", "byte_enable_calc"};

class PaperKernels : public Workload
{
  public:
    explicit PaperKernels(const RunConfig &config) : config_(config) {}

    void setup() override
    {
        kernels_.clear();
        Rng rng(config_.seed);
        size_t limit =
            config_.size ? config_.size : std::size(kKernelsByCost);
        for (const char *name : kKernelsByCost) {
            if (kernels_.size() == limit)
                break;
            const bench::Benchmark &benchmark = bench::findBenchmark(name);
            parseInput(benchmark.source);
            kernels_.push_back(Kernel{&benchmark, 0});
        }
        shuffle(kernels_, rng);
        for (Kernel &kernel : kernels_)
            kernel.data_seed = rng.next();
    }

    std::vector<Sample> runPass(Tracer &tracer) override
    {
        std::vector<Sample> samples;
        for (const Kernel &kernel : kernels_) {
            core::SeerOptions options = benchOptions();
            options.unroll_max_trip = kernel.benchmark->unroll_max_trip;
            samples.push_back(compileInProcess(
                kernel.benchmark->name, kernel.benchmark->source,
                kernel.benchmark->func, options, tracer,
                next_request_++));
        }
        return samples;
    }

    /** Golden compare on the kernel's prepare() inputs; the HLS model
     *  co-simulates the output, so one run gives both verdict and
     *  design quality. */
    void check(std::vector<Sample> &samples,
               seer::json::Value &metrics) override
    {
        std::vector<Design> designs;
        for (const Kernel &kernel : kernels_) {
            const bench::Benchmark &benchmark = *kernel.benchmark;
            for (Sample &sample : samples) {
                if (sample.program != benchmark.name ||
                    !sample.error.empty())
                    continue;
                Design design;
                sample.error = checkKernel(benchmark, sample.output,
                                           kernel.data_seed, &design);
                if (sample.error.empty())
                    designs.push_back(design);
                break; // later samples must equal this one (main.cc)
            }
        }
        putDesignMetrics(designs, metrics);
    }

    bool inProcess() const override { return true; }

  private:
    struct Kernel
    {
        const bench::Benchmark *benchmark;
        uint64_t data_seed;
    };

    static std::string checkKernel(const bench::Benchmark &benchmark,
                                   const std::string &output_text,
                                   uint64_t seed, Design *design)
    {
        try {
            ir::Module output = parseInput(output_text);
            std::vector<ir::Buffer> actual =
                bench::makeBuffers(output, benchmark.func);
            Rng rng(seed);
            benchmark.prepare(actual, rng);
            std::vector<ir::Buffer> expected = actual;
            benchmark.golden(expected);
            std::vector<ir::RtValue> args;
            for (ir::Buffer &buffer : actual)
                args.push_back(&buffer);
            hls::HlsReport report =
                hls::evaluate(output, benchmark.func, std::move(args));
            design->cycles = static_cast<double>(report.total_cycles);
            design->area = report.area_um2;
            for (size_t b = 0; b < actual.size(); ++b) {
                if (actual[b].ints != expected[b].ints)
                    return "buffer " + std::to_string(b) +
                           " differs from the golden reference";
                for (size_t i = 0; i < actual[b].floats.size(); ++i) {
                    double got = actual[b].floats[i];
                    double want = expected[b].floats[i];
                    double tolerance = 1e-9 * std::max({1.0, std::abs(got),
                                                        std::abs(want)});
                    if (std::abs(got - want) > tolerance)
                        return "buffer " + std::to_string(b) +
                               " differs from the golden reference";
                }
            }
        } catch (const std::exception &err) {
            return std::string("check threw: ") + err.what();
        }
        return "";
    }

    RunConfig config_;
    std::vector<Kernel> kernels_;
    uint64_t next_request_ = 0;
};

// --- corpus_small -----------------------------------------------------------

/** A generated program with its seeded check inputs. */
struct Program
{
    std::string id;
    std::string text;
    std::string func;
    uint64_t data_seed = 0;
};

std::vector<Program>
makePrograms(uint64_t base, size_t count,
             const corpus::GeneratorOptions &shape, Rng &rng)
{
    std::vector<Program> programs;
    for (size_t i = 0; i < count; ++i) {
        Program program;
        program.id = "corpus#" + std::to_string(base + i);
        program.text = corpus::generateProgram(base + i, shape);
        program.func = firstFuncName(parseInput(program.text));
        programs.push_back(std::move(program));
    }
    shuffle(programs, rng);
    for (Program &program : programs)
        program.data_seed = rng.next();
    return programs;
}

/** Interpreter equality for the first sample of each program. */
void
checkPrograms(const std::vector<Program> &programs,
              std::vector<Sample> &samples, seer::json::Value &metrics)
{
    std::vector<Design> designs;
    for (const Program &program : programs) {
        for (Sample &sample : samples) {
            if (sample.program != program.id || !sample.error.empty())
                continue;
            Design design;
            sample.error = checkAgainstInput(program.text, sample.output,
                                             program.data_seed, &design);
            if (sample.error.empty())
                designs.push_back(design);
            break; // later samples must equal this one (main.cc)
        }
    }
    putDesignMetrics(designs, metrics);
}

class CorpusSmall : public Workload
{
  public:
    explicit CorpusSmall(const RunConfig &config) : config_(config) {}

    void setup() override
    {
        Rng rng(config_.seed);
        programs_ = makePrograms(
            kCorpusBase, config_.size ? config_.size : kCorpusPrograms,
            smallShape(), rng);
    }

    std::vector<Sample> runPass(Tracer &tracer) override
    {
        std::vector<Sample> samples;
        for (const Program &program : programs_)
            samples.push_back(compileInProcess(program.id, program.text,
                                               program.func, benchOptions(),
                                               tracer, next_request_++));
        return samples;
    }

    void check(std::vector<Sample> &samples,
               seer::json::Value &metrics) override
    {
        checkPrograms(programs_, samples, metrics);
    }

    bool inProcess() const override { return true; }

  private:
    RunConfig config_;
    std::vector<Program> programs_;
    uint64_t next_request_ = 0;
};

// --- daemon_mixed -----------------------------------------------------------

/** Nodes, unions and total seconds from the `; e-graph: ...` line of a
 *  response's summary log (core::summarizeRun). */
bool
countsFromSummary(const std::string &log, Layers *layers)
{
    size_t at = log.find("; e-graph: ");
    unsigned long long nodes = 0, classes = 0, unions = 0;
    double total = 0;
    if (at == std::string::npos ||
        std::sscanf(log.c_str() + at,
                    "; e-graph: %llu nodes, %llu classes, %llu rewrites, "
                    "%lfs total",
                    &nodes, &classes, &unions, &total) != 4)
        return false;
    layers->nodes = nodes;
    layers->unions = unions;
    layers->total = total;
    return true;
}

class DaemonMixed : public Workload
{
  public:
    explicit DaemonMixed(const RunConfig &config) : config_(config) {}

    void setup() override
    {
        Rng rng(config_.seed);
        programs_ = makePrograms(
            kDaemonBase, config_.size ? config_.size : kDaemonPrograms,
            daemonShape(), rng);
        payloads_.clear();
        for (const Program &program : programs_) {
            core::ServeRequest request =
                core::ServeRequest::fromOptions(benchOptions());
            request.func = program.func;
            request.ir_text = program.text;
            request.time_limit_seconds = kNoTimeLimit;
            std::string plain = core::serializeRequest(request);
            request.want_stats = true;
            payloads_.push_back({plain, core::serializeRequest(request)});
        }
        stream_ = makeStream(programs_.size(), rng);

        core::ServerOptions options;
        options.socket_path = config_.work_dir + "/optd-" +
                              std::to_string(::getpid()) + ".sock";
        options.workers = kDaemonWorkers;
        options.cache_max_bytes = kDaemonCacheBytes;
        options.save_every = 0;
        options.quiet = true;
        server_ = std::make_unique<core::OptServer>(options);
        std::string error;
        if (!server_->start(&error))
            throw std::runtime_error("server start: " + error);
        // Each client connects once; the server treats a connection
        // closed before its first frame as a health probe.
        for (unsigned c = 0; c < kDaemonClients; ++c) {
            net::Fd probe = net::connectUnix(options.socket_path, &error);
            if (!probe.valid())
                throw std::runtime_error("client connect: " + error);
        }
    }

    /** Two closed-loop clients take the seeded stream in order. A
     *  repeat is only sent once its first request has been answered,
     *  so it reads what that request wrote to the shared cache; until
     *  then a client takes the next request that is ready instead of
     *  idling behind it. */
    std::vector<Sample> runPass(Tracer &tracer) override
    {
        size_t n = stream_.size();
        std::vector<Sample> samples(n);
        std::vector<char> taken(n, 0), answered(n, 0);
        size_t cursor = 0; // first slot not yet taken
        std::mutex mutex;
        std::condition_variable cv;
        auto take = [&]() -> size_t {
            std::unique_lock<std::mutex> lock(mutex);
            while (true) {
                while (cursor < n && taken[cursor])
                    ++cursor;
                if (cursor == n)
                    return n;
                for (size_t k = cursor; k < n; ++k) {
                    const Slot &slot = stream_[k];
                    if (!taken[k] && (!slot.repeat || answered[slot.first])) {
                        taken[k] = 1;
                        return k;
                    }
                }
                cv.wait(lock);
            }
        };
        auto client = [&] {
            for (size_t k = take(); k < n; k = take()) {
                const Slot &slot = stream_[k];
                samples[k] = roundTrip(slot.program, tracer,
                                       next_request_ + k);
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    answered[k] = 1;
                }
                cv.notify_all();
            }
        };
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kDaemonClients; ++c)
            clients.emplace_back(client);
        for (std::thread &thread : clients)
            thread.join();
        next_request_ += n;
        return samples;
    }

    /** Interpreter equality on each program's first response. The
     *  server's parse and print are invisible from the client, so the
     *  traced samples get them from timing ir::parseModule and
     *  ir::toString on the request's own input and output text. */
    void check(std::vector<Sample> &samples,
               seer::json::Value &metrics) override
    {
        checkPrograms(programs_, samples, metrics);
        for (Sample &sample : samples) {
            if (!sample.traced || !sample.error.empty())
                continue;
            const Program &program = programOf(sample.program);
            Clock::time_point begin = Clock::now();
            ir::parseModule(program.text);
            Clock::time_point parsed = Clock::now();
            ir::Module output = ir::parseModule(sample.output);
            Clock::time_point reparsed = Clock::now();
            ir::toString(output);
            sample.layers.parse = secondsBetween(begin, parsed);
            sample.layers.print =
                secondsBetween(reparsed, Clock::now());
        }
    }

    void teardown() override
    {
        server_.reset();
        malloc_trim(0); // as between in-process programs
    }

    bool inProcess() const override { return false; }
    unsigned clients() const override { return kDaemonClients; }

  private:
    struct Slot
    {
        size_t program;
        bool repeat;
        size_t first; ///< stream index of the program's first request
    };

    /** Every program twice: a first request (cache write), then a
     *  repeat (cache read) at a random later position. */
    static std::vector<Slot> makeStream(size_t programs, Rng &rng)
    {
        std::vector<Slot> stream;
        std::vector<size_t> unrepeated; // stream indices of firsts
        size_t fresh = 0;
        while (fresh < programs || !unrepeated.empty()) {
            if (unrepeated.empty() ||
                (fresh < programs && rng.nextBelow(2) == 0)) {
                unrepeated.push_back(stream.size());
                stream.push_back(Slot{fresh++, false, stream.size()});
                continue;
            }
            size_t pick = rng.nextBelow(unrepeated.size());
            size_t first = unrepeated[pick];
            unrepeated.erase(unrepeated.begin() +
                             static_cast<std::ptrdiff_t>(pick));
            stream.push_back(Slot{stream[first].program, true, first});
        }
        return stream;
    }

    const Program &programOf(const std::string &id) const
    {
        for (const Program &program : programs_) {
            if (program.id == id)
                return program;
        }
        throw std::runtime_error("unknown program " + id);
    }

    /** Client side of one request, send to response. */
    Sample roundTrip(size_t index, Tracer &tracer, uint64_t request)
    {
        Sample sample;
        sample.program = programs_[index].id;
        sample.traced = tracer.enabled();
        const std::string &socket = server_->options().socket_path;
        std::string error, payload;
        core::ServeResponse response;
        Clock::time_point begin = Clock::now();
        {
            ScopedSpan root(tracer, "request", -1, request);
            net::Fd sock;
            {
                ScopedSpan span(tracer, "support.connect", root.id(),
                                request);
                sock = net::connectUnix(socket, &error);
            }
            if (!sock.valid()) {
                sample.error = "connect: " + error;
                return sample;
            }
            net::IoStatus status;
            {
                ScopedSpan span(tracer, "support.send", root.id(), request);
                const Payload &payload = payloads_[index];
                status = net::sendFrame(
                    sock.get(), sample.traced ? payload.stats : payload.plain,
                    &error);
            }
            if (status == net::IoStatus::Ok) {
                ScopedSpan span(tracer, "support.recv", root.id(), request);
                status = net::recvFrame(sock.get(), payload, &error);
            }
            if (status != net::IoStatus::Ok) {
                sample.error = "socket: " + error;
                return sample;
            }
            ScopedSpan span(tracer, "core.decode_response", root.id(),
                            request);
            if (!core::parseResponse(payload, &response, &error)) {
                sample.error = "response: " + error;
                return sample;
            }
        }
        sample.seconds = secondsBetween(begin, Clock::now());
        if (response.exit_code != 0) {
            sample.error = "exit code " +
                           std::to_string(response.exit_code) + ": " +
                           response.error;
            return sample;
        }
        sample.output = std::move(response.output_ir);
        if (!sample.traced) {
            sample.layers.degraded = response.degraded;
            if (!countsFromSummary(response.log, &sample.layers))
                sample.error = "no e-graph summary in the response log";
        } else if (!layersFromStatsJson(response.stats_json,
                                        &sample.layers, &error)) {
            sample.error = error;
        }
        return sample;
    }

    RunConfig config_;
    std::vector<Program> programs_;
    /** A plain request (what `seer-opt --connect` sends) and one that
     *  also asks for the stats JSON, which only a traced pass needs:
     *  rendering it costs the server several ms a request. */
    struct Payload
    {
        std::string plain;
        std::string stats;
    };
    std::vector<Payload> payloads_;
    std::vector<Slot> stream_;
    std::unique_ptr<core::OptServer> server_;
    uint64_t next_request_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_kernels", "corpus_small", "daemon_mixed"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const RunConfig &config)
{
    if (config.workload == "paper_kernels")
        return std::make_unique<PaperKernels>(config);
    if (config.workload == "corpus_small")
        return std::make_unique<CorpusSmall>(config);
    if (config.workload == "daemon_mixed")
        return std::make_unique<DaemonMixed>(config);
    return nullptr;
}

} // namespace perfbench
