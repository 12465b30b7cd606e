/**
 * Daemon-mode tests: the sharded concurrent cache, the wire protocol,
 * and an embedded OptServer driven over real sockets.
 *
 * The concurrency tests are written to run under TSan (the `tsan` CI
 * job builds this binary with -fsanitize=thread): many threads hammer
 * one StripedLru / ExternalEvalCache while metrics are read
 * concurrently. The differential tests pin the daemon's core claim —
 * a request served over the socket is byte-identical to the same
 * request run in-process, and stats agree modulo timing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/pass_eval.h"
#include "core/server.h"
#include "core/session.h"
#include "support/socket.h"
#include "support/striped_lru.h"

namespace seer::core {
namespace {

const char *kKernel = R"(
func.func @seq_loops(%a: memref<64xi32>, %b: memref<64xi32>,
                     %c: memref<64xi32>) {
  affine.for %i = 0 to 32 {
    %v = memref.load %a[%i] : memref<64xi32>
    %w = arith.addi %v, %v : i32
    memref.store %w, %b[%i] : memref<64xi32>
  }
  affine.for %j = 0 to 32 {
    %v = memref.load %b[%j] : memref<64xi32>
    %c2 = arith.constant 2 : i32
    %w = arith.muli %v, %c2 : i32
    memref.store %w, %c[%j] : memref<64xi32>
  }
})";

/** A fast request: control rules only, minimal validation. */
ServeRequest
smallRequest()
{
    ServeRequest request;
    request.func = "seq_loops";
    request.ir_text = kKernel;
    request.use_rover = false;
    request.validation_runs = 2;
    // Never let sanitizer slowdown turn exploration time-limited:
    // byte-identity assertions need machine-speed-independent runs.
    request.time_limit_seconds = 1e6;
    return request;
}

std::string
tempPath(const char *tag)
{
    return "/tmp/seer_serve_test_" + std::string(tag) + "_" +
           std::to_string(::getpid());
}

// ---------------------------------------------------------------------
// StripedLru
// ---------------------------------------------------------------------

TEST(StripedLru, BasicLookupInsertEvict)
{
    // 4 shards x 64-byte budget: each shard holds two 25-byte entries
    // at most; the third insert into a shard evicts its LRU entry.
    StripedLru<int> lru(4, 256);
    EXPECT_EQ(lru.shardCount(), 4u);
    for (uint64_t key = 0; key < 64; ++key)
        lru.insert(key, static_cast<int>(key), 25);
    LruMetrics m = lru.metrics();
    EXPECT_EQ(m.insertions, 64u);
    EXPECT_GT(m.evictions, 0u);
    EXPECT_EQ(m.evicted_bytes, m.evictions * 25);
    EXPECT_EQ(m.entries, lru.size());
    EXPECT_LE(lru.bytes(), 256);
    // Every resident entry still maps to its own value.
    lru.forEachSorted([](uint64_t key, const int &value) {
        EXPECT_EQ(static_cast<int>(key), value);
    });
}

TEST(StripedLru, LruOrderProtectsRecentlyUsed)
{
    // One shard so the LRU order is fully observable.
    StripedLru<int> lru(1, 100);
    lru.insert(1, 1, 40);
    lru.insert(2, 2, 40);
    // Touch 1: now 2 is the eviction candidate.
    EXPECT_TRUE(lru.lookup(1).has_value());
    lru.insert(3, 3, 40);
    EXPECT_TRUE(lru.lookup(1, /*count=*/false).has_value());
    EXPECT_TRUE(lru.lookup(3, /*count=*/false).has_value());
    EXPECT_FALSE(lru.lookup(2, /*count=*/false).has_value());
}

TEST(StripedLru, OversizedEntryStaysUntilDisplaced)
{
    StripedLru<int> lru(1, 10);
    lru.insert(7, 7, 1000); // larger than the whole budget
    EXPECT_EQ(lru.size(), 1u);
    EXPECT_TRUE(lru.lookup(7).has_value());
}

TEST(StripedLru, ChargeHookObservesAllDeltas)
{
    std::atomic<int64_t> charged{0};
    {
        StripedLru<std::string> lru(
            2, 0, [&](int64_t delta) { charged += delta; });
        lru.insert(1, "a", 10);
        lru.insert(2, "b", 20);
        EXPECT_EQ(charged.load(), 30);
        lru.insert(1, "c", 15); // overwrite: delta +5
        EXPECT_EQ(charged.load(), 35);
        lru.clear();
        EXPECT_EQ(charged.load(), 0);
    }
}

TEST(StripedLru, ConcurrentHammer)
{
    // The TSan target: concurrent inserts/lookups/metrics/eviction on
    // overlapping keys must be free of data races and never lose the
    // value-follows-key invariant.
    StripedLru<uint64_t> lru(8, 64 * 1024);
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kKeys = 512;
    constexpr int kRounds = 200;
    std::vector<std::thread> threads;
    std::atomic<bool> stop{false};
    // A reader thread polls aggregate metrics while writers run.
    threads.emplace_back([&] {
        while (!stop.load()) {
            LruMetrics m = lru.metrics();
            EXPECT_EQ(m.evicted_bytes % 64, 0u);
            (void)lru.bytes();
            (void)lru.size();
        }
    });
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (uint64_t i = t; i < kKeys; i += kThreads) {
                    uint64_t key = i * 0x9E37 + 1;
                    if (auto hit = lru.lookup(key))
                        EXPECT_EQ(*hit, key * 2);
                    else
                        lru.insert(key, key * 2, 64);
                }
            }
        });
    }
    for (size_t i = 1; i < threads.size(); ++i)
        threads[i].join();
    stop.store(true);
    threads[0].join();
    LruMetrics m = lru.metrics();
    EXPECT_GT(m.hits + m.misses, 0u);
    EXPECT_EQ(m.bytes, m.entries * 64);
    lru.forEachSorted([](uint64_t key, const uint64_t &value) {
        EXPECT_EQ(value, key * 2);
    });
}

TEST(EvalCache, ConcurrentSessionsShareOneStore)
{
    // Many "sessions" exercising one shared cache: pass + verify
    // inserts, probes, and stats reads race benignly under TSan.
    ExternalEvalCache cache(true, {8, 32 * 1024});
    constexpr unsigned kThreads = 6;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (uint64_t i = 0; i < 300; ++i) {
                uint64_t key = (i % 100) * 7919 + t;
                if (!cache.lookupPass(key, /*count_hit=*/true)) {
                    cache.countMiss();
                    PassOutcome outcome;
                    outcome.status = PassOutcome::Status::Rejected;
                    outcome.detail = "detail-" + std::to_string(key);
                    cache.insertPass(key, std::move(outcome));
                }
                VerifyVerdict verdict;
                verdict.result = VerifyVerdict::Result::Equivalent;
                cache.insertVerify(key, verdict);
                (void)cache.lookupVerify(key);
                if (i % 50 == 0)
                    (void)cache.stats();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    ExternalEvalStats stats = cache.stats();
    EXPECT_EQ(stats.cache_shards, 8u);
    EXPECT_GT(stats.pass_cache_hits + stats.pass_cache_misses, 0u);
    EXPECT_GT(stats.resident_entries, 0u);
}

// ---------------------------------------------------------------------
// Eviction-order determinism of the persisted form
// ---------------------------------------------------------------------

TEST(EvalCache, SaveLoadSaveIsByteStableUnderEviction)
{
    // Two caches fed the same entries in different orders (leaving
    // different LRU states behind) must persist byte-identical files:
    // serialization iterates keys in sorted order, not traffic order.
    auto fill = [](ExternalEvalCache &cache, bool reversed) {
        for (int i = 0; i < 200; ++i) {
            int n = reversed ? 199 - i : i;
            uint64_t key = static_cast<uint64_t>(n) * 7919 + 17;
            PassOutcome outcome;
            outcome.status = PassOutcome::Status::Rejected;
            outcome.detail = "entry-" + std::to_string(n);
            cache.insertPass(key, std::move(outcome));
            VerifyVerdict verdict;
            verdict.result = n % 3 == 0
                                 ? VerifyVerdict::Result::Mismatch
                                 : VerifyVerdict::Result::Equivalent;
            verdict.diag = "diag-" + std::to_string(n);
            cache.insertVerify(key, verdict);
        }
    };
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    };
    std::string path_a = tempPath("bytestable_a");
    std::string path_b = tempPath("bytestable_b");

    ExternalEvalCache forward(true, {4, 0});
    ExternalEvalCache reversed(true, {16, 0});
    fill(forward, false);
    fill(reversed, true);
    std::string error;
    ASSERT_TRUE(forward.saveFile(path_a, &error)) << error;
    ASSERT_TRUE(reversed.saveFile(path_b, &error)) << error;
    EXPECT_EQ(slurp(path_a), slurp(path_b))
        << "traffic order / shard count leaked into the save file";

    // Round trip: load into a budgeted cache, save again. The reloaded
    // file must be byte-identical — loading must not reorder entries,
    // and the load path must not evict below the loaded set here
    // (budget is ample).
    ExternalEvalCache reloaded(true, {8, 1024 * 1024});
    ASSERT_GT(reloaded.loadFile(path_a, &error), 0u) << error;
    std::string path_c = tempPath("bytestable_c");
    ASSERT_TRUE(reloaded.saveFile(path_c, &error)) << error;
    EXPECT_EQ(slurp(path_a), slurp(path_c));

    // Under a tight budget the survivor *set* is smaller, but a second
    // save of the same survivors is still stable.
    ExternalEvalCache tight(true, {2, 4 * 1024});
    (void)tight.loadFile(path_a, &error);
    std::string path_d = tempPath("bytestable_d");
    std::string path_e = tempPath("bytestable_e");
    ASSERT_TRUE(tight.saveFile(path_d, &error)) << error;
    ASSERT_TRUE(tight.saveFile(path_e, &error)) << error;
    EXPECT_EQ(slurp(path_d), slurp(path_e));
    EXPECT_GT(tight.stats().pass_evictions +
                  tight.stats().verify_evictions,
              0u)
        << "the tight budget was expected to force evictions";

    for (const std::string &p :
         {path_a, path_b, path_c, path_d, path_e})
        std::remove(p.c_str());
}

TEST(EvalCache, CorruptFileColdStartsWithHonestCounters)
{
    std::string path = tempPath("corrupt");
    {
        ExternalEvalCache cache(true, {});
        for (int i = 0; i < 5; ++i) {
            PassOutcome outcome;
            outcome.status = PassOutcome::Status::NotApplied;
            cache.insertPass(static_cast<uint64_t>(i) + 1, outcome);
        }
        std::string error;
        ASSERT_TRUE(cache.saveFile(path, &error)) << error;
    }
    // Truncate: the checksum line is gone, so the load must reject the
    // whole file and report how much it threw away.
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        std::string text = buffer.str();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }
    ExternalEvalCache cache(true, {});
    std::string error;
    EXPECT_EQ(cache.loadFile(path, &error), 0u);
    EXPECT_FALSE(error.empty());
    ExternalEvalStats stats = cache.stats();
    EXPECT_TRUE(stats.disk_load_failed);
    EXPECT_FALSE(stats.disk_load_error.empty());
    EXPECT_EQ(stats.disk_entries_loaded, 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsEveryField)
{
    ServeRequest request;
    request.func = "kernel";
    request.ir_text = "line one\nline two\n\nline four";
    request.want_stats = true;
    request.use_rover = false;
    request.use_control = false;
    request.max_phases = 7;
    request.exact_datapath = false;
    request.naive_extract = true;
    request.use_laws = false;
    request.unroll_max_trip = 16;
    request.jobs = 3;
    request.use_pass_cache = false;
    request.strict = true;
    request.deadline_seconds = 2.5;
    request.mem_budget_bytes = 123456;
    request.validation_runs = 9;
    request.time_limit_seconds = 777.5;

    ServeRequest parsed;
    std::string error;
    ASSERT_TRUE(
        parseRequest(serializeRequest(request), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.func, request.func);
    EXPECT_EQ(parsed.ir_text, request.ir_text);
    EXPECT_EQ(parsed.want_stats, request.want_stats);
    EXPECT_EQ(parsed.use_rover, request.use_rover);
    EXPECT_EQ(parsed.use_control, request.use_control);
    EXPECT_EQ(parsed.max_phases, request.max_phases);
    EXPECT_EQ(parsed.exact_datapath, request.exact_datapath);
    EXPECT_EQ(parsed.naive_extract, request.naive_extract);
    EXPECT_EQ(parsed.use_laws, request.use_laws);
    EXPECT_EQ(parsed.unroll_max_trip, request.unroll_max_trip);
    EXPECT_EQ(parsed.jobs, request.jobs);
    EXPECT_EQ(parsed.use_pass_cache, request.use_pass_cache);
    EXPECT_EQ(parsed.strict, request.strict);
    EXPECT_EQ(parsed.deadline_seconds, request.deadline_seconds);
    EXPECT_EQ(parsed.mem_budget_bytes, request.mem_budget_bytes);
    EXPECT_EQ(parsed.validation_runs, request.validation_runs);
    EXPECT_EQ(parsed.time_limit_seconds, request.time_limit_seconds);
}

TEST(ServeProtocol, ResponseRoundTripsEveryField)
{
    ServeResponse response;
    response.exit_code = 3;
    response.degraded = true;
    response.output_ir = "func.func @f() {\n}\n";
    response.log = "; line\n; another\n";
    response.error = "";
    response.stats_json = "{\n  \"k\": 1\n}";
    response.pass_cache_hits = 11;
    response.pass_cache_misses = 22;
    response.verify_cache_hits = 33;
    response.evaluations = 44;

    ServeResponse parsed;
    std::string error;
    ASSERT_TRUE(
        parseResponse(serializeResponse(response), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.exit_code, response.exit_code);
    EXPECT_EQ(parsed.degraded, response.degraded);
    EXPECT_EQ(parsed.output_ir, response.output_ir);
    EXPECT_EQ(parsed.log, response.log);
    EXPECT_EQ(parsed.error, response.error);
    EXPECT_EQ(parsed.stats_json, response.stats_json);
    EXPECT_EQ(parsed.pass_cache_hits, response.pass_cache_hits);
    EXPECT_EQ(parsed.pass_cache_misses, response.pass_cache_misses);
    EXPECT_EQ(parsed.verify_cache_hits, response.verify_cache_hits);
    EXPECT_EQ(parsed.evaluations, response.evaluations);
}

TEST(ServeProtocol, MalformedPayloadsAreRejectedNotCrashed)
{
    ServeRequest request;
    ServeResponse response;
    std::string error;
    EXPECT_FALSE(parseRequest("", &request, &error));
    EXPECT_FALSE(parseRequest("not-the-magic\n", &request, &error));
    EXPECT_FALSE(
        parseRequest("seer-req/1\nir 999999\nshort", &request, &error));
    EXPECT_FALSE(parseResponse("", &response, &error));
    EXPECT_FALSE(parseResponse("seer-resp/1\nexit 0\n", &response,
                               &error));
    // Unknown keys are skipped (forward compatibility), not fatal.
    ServeRequest forward;
    std::string text = serializeRequest(smallRequest());
    size_t pos = text.find('\n');
    text.insert(pos + 1, "future_knob 42\n");
    EXPECT_TRUE(parseRequest(text, &forward, &error)) << error;
    EXPECT_EQ(forward.func, "seq_loops");
}

// ---------------------------------------------------------------------
// In-process vs daemon differential + embedded-server behavior
// ---------------------------------------------------------------------

/** Mask wall-clock "<float>s" tokens in a summary log: the byte-
 *  identity contract covers everything except timing. */
std::string
maskTimings(const std::string &log)
{
    std::string out;
    size_t i = 0;
    while (i < log.size()) {
        if (std::isdigit(static_cast<unsigned char>(log[i]))) {
            size_t j = i;
            while (j < log.size() &&
                   (std::isdigit(static_cast<unsigned char>(log[j])) ||
                    log[j] == '.' || log[j] == 'e' || log[j] == '-'))
                ++j;
            if (j < log.size() && log[j] == 's') {
                out += "<t>";
                i = j + 1;
                continue;
            }
        }
        out += log[i++];
    }
    return out;
}

/** Send one request over the socket; asserts transport health. */
ServeResponse
roundTrip(const std::string &socket, const ServeRequest &request)
{
    std::string error;
    net::Fd fd = net::connectUnix(socket, &error);
    EXPECT_TRUE(fd.valid()) << error;
    EXPECT_EQ(net::sendFrame(fd.get(), serializeRequest(request),
                             &error),
              net::IoStatus::Ok)
        << error;
    std::string payload;
    EXPECT_EQ(net::recvFrame(fd.get(), payload, &error),
              net::IoStatus::Ok)
        << error;
    ServeResponse response;
    EXPECT_TRUE(parseResponse(payload, &response, &error)) << error;
    return response;
}

TEST(OptServer, ClientMatchesInProcessByteForByte)
{
    ServerOptions options;
    options.socket_path = tempPath("diff") + ".sock";
    options.workers = 2;
    options.quiet = true;
    OptServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeRequest request = smallRequest();
    request.want_stats = true;

    // In-process arm: the same runSession the daemon executes, on a
    // private cache (exactly what seer-opt without --connect runs).
    SessionEnv env;
    env.exec = ExecContext::make();
    ServeResponse local = runSession(request, env);
    ASSERT_EQ(local.exit_code, 0) << local.error;

    ServeResponse remote = roundTrip(options.socket_path, request);
    ASSERT_EQ(remote.exit_code, 0) << remote.error;

    // The core claim: byte-identical IR either way, and an identical
    // summary once its wall-clock timings are masked.
    EXPECT_EQ(local.output_ir, remote.output_ir);
    EXPECT_EQ(maskTimings(local.log), maskTimings(remote.log));
    EXPECT_EQ(local.degraded, remote.degraded);
    // Stats modulo timing: the discrete evaluation counters agree; the
    // seconds fields are wall-clock and legitimately differ.
    EXPECT_EQ(local.pass_cache_misses, remote.pass_cache_misses);
    EXPECT_EQ(local.evaluations, remote.evaluations);
    EXPECT_FALSE(local.stats_json.empty());
    EXPECT_FALSE(remote.stats_json.empty());

    // Warm pass on the daemon's shared cache: identical bytes again,
    // no fresh evaluations.
    ServeResponse warm = roundTrip(options.socket_path, request);
    ASSERT_EQ(warm.exit_code, 0) << warm.error;
    EXPECT_EQ(warm.output_ir, local.output_ir);
    EXPECT_EQ(warm.evaluations, 0u);
    EXPECT_EQ(warm.pass_cache_misses, 0u);

    server.stop();
    ServerCounters counters = server.counters();
    EXPECT_EQ(counters.requests, 2u);
    EXPECT_EQ(counters.failures, 0u);
}

TEST(OptServer, ConcurrentClientsAllSucceedIdentically)
{
    ServerOptions options;
    options.socket_path = tempPath("many") + ".sock";
    options.workers = 3;
    options.quiet = true;
    OptServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr unsigned kClients = 6;
    std::vector<std::string> outputs(kClients);
    std::vector<int> exits(kClients, -1);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            ServeResponse response =
                roundTrip(options.socket_path, smallRequest());
            outputs[i] = response.output_ir;
            exits[i] = response.exit_code;
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (unsigned i = 0; i < kClients; ++i) {
        EXPECT_EQ(exits[i], 0);
        EXPECT_EQ(outputs[i], outputs[0]) << "client " << i;
    }
    server.stop();
    EXPECT_EQ(server.counters().requests, kClients);
}

/** A counter of the external_eval section of a response's stats JSON. */
uint64_t
evalCounter(const std::string &stats_json, const std::string &key)
{
    size_t section = stats_json.find("\"external_eval\"");
    size_t at = stats_json.find("\"" + key + "\":", section);
    EXPECT_NE(section, std::string::npos);
    EXPECT_NE(at, std::string::npos) << key;
    if (section == std::string::npos || at == std::string::npos)
        return 0;
    return std::stoull(stats_json.substr(at + key.size() + 3));
}

TEST(OptServer, ConcurrentRequestsCountOnlyTheirOwnTraffic)
{
    // Two requests run at once on the daemon's shared store, small
    // enough to evict. Each must report only its own cache traffic,
    // so their counters add up to exactly the store's totals.
    ServerOptions options;
    options.socket_path = tempPath("tally") + ".sock";
    options.workers = 2;
    options.cache_shards = 2;
    options.cache_max_bytes = 8 * 1024;
    options.quiet = true;
    OptServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    constexpr unsigned kClients = 2;
    std::vector<ServeResponse> responses(kClients);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            ServeRequest request = smallRequest();
            request.validation_runs = 2 + static_cast<int>(i);
            request.want_stats = true;
            responses[i] = roundTrip(options.socket_path, request);
        });
    }
    for (auto &thread : threads)
        thread.join();
    server.stop();

    ExternalEvalStats totals = server.cache()->stats();
    const std::vector<std::pair<const char *, uint64_t>> expected = {
        {"pass_cache_hits", totals.pass_cache_hits},
        {"pass_cache_misses", totals.pass_cache_misses},
        {"verify_cache_hits", totals.verify_cache_hits},
        {"verify_cache_misses", totals.verify_cache_misses},
        {"candidates_deduped", totals.candidates_deduped},
        {"evaluations", totals.evaluations},
        {"batches", totals.batches},
        {"batch_jobs", totals.batch_jobs},
        {"pass_evictions", totals.pass_evictions},
        {"verify_evictions", totals.verify_evictions},
        {"evicted_bytes", totals.evicted_bytes},
    };
    for (const ServeResponse &response : responses)
        ASSERT_EQ(response.exit_code, 0) << response.error;
    EXPECT_GT(totals.evaluations, 0u);
    EXPECT_GT(totals.pass_evictions + totals.verify_evictions, 0u);
    for (const auto &[key, total] : expected) {
        uint64_t sum = 0;
        for (const ServeResponse &response : responses)
            sum += evalCounter(response.stats_json, key);
        EXPECT_EQ(sum, total) << key;
    }
    EXPECT_EQ(responses[0].evaluations + responses[1].evaluations,
              totals.evaluations);
}

TEST(OptServer, MidRequestDisconnectIsContained)
{
    ServerOptions options;
    options.socket_path = tempPath("gone") + ".sock";
    options.workers = 2;
    options.quiet = true;
    OptServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Send a request, then hang up immediately: the disconnect watcher
    // cancels the session; the daemon must survive and keep serving.
    {
        net::Fd fd = net::connectUnix(options.socket_path, &error);
        ASSERT_TRUE(fd.valid()) << error;
        ServeRequest request = smallRequest();
        request.validation_runs = 8; // long enough to observe the hangup
        ASSERT_EQ(net::sendFrame(fd.get(), serializeRequest(request),
                                 &error),
                  net::IoStatus::Ok)
            << error;
    } // fd closes here, mid-request

    // A garbage frame must count a protocol error, not kill anything.
    {
        net::Fd fd = net::connectUnix(options.socket_path, &error);
        ASSERT_TRUE(fd.valid()) << error;
        ASSERT_EQ(net::sendFrame(fd.get(), "complete garbage", &error),
                  net::IoStatus::Ok);
        std::string payload;
        if (net::recvFrame(fd.get(), payload, &error) ==
            net::IoStatus::Ok) {
            ServeResponse response;
            ASSERT_TRUE(parseResponse(payload, &response, &error));
            EXPECT_EQ(response.exit_code, 1);
            EXPECT_FALSE(response.error.empty());
        }
    }

    // The server still answers a healthy client.
    ServeResponse after =
        roundTrip(options.socket_path, smallRequest());
    EXPECT_EQ(after.exit_code, 0) << after.error;

    server.stop();
    ServerCounters counters = server.counters();
    EXPECT_GE(counters.requests, 1u);
    EXPECT_EQ(counters.protocol_errors, 1u);
}

TEST(OptServer, LegacyMatchJobsRequestStillParsesAndRuns)
{
    // Older clients sent a `match_jobs` field for the removed parallel
    // e-match search. It is now an unknown key: skipped, not fatal.
    std::string text = serializeRequest(smallRequest());
    text.insert(text.find('\n') + 1, "match_jobs 2\n");
    ServeRequest parsed;
    std::string error;
    ASSERT_TRUE(parseRequest(text, &parsed, &error)) << error;
    EXPECT_EQ(parsed.func, "seq_loops");
    EXPECT_EQ(parsed.ir_text, kKernel);

    ServerOptions options;
    options.socket_path = tempPath("legacy") + ".sock";
    options.quiet = true;
    OptServer server(options);
    ASSERT_TRUE(server.start(&error)) << error;
    net::Fd fd = net::connectUnix(options.socket_path, &error);
    ASSERT_TRUE(fd.valid()) << error;
    ASSERT_EQ(net::sendFrame(fd.get(), text, &error), net::IoStatus::Ok)
        << error;
    std::string payload;
    ASSERT_EQ(net::recvFrame(fd.get(), payload, &error),
              net::IoStatus::Ok)
        << error;
    ServeResponse response;
    ASSERT_TRUE(parseResponse(payload, &response, &error)) << error;
    EXPECT_EQ(response.exit_code, 0) << response.error;

    SessionEnv env;
    env.exec = ExecContext::make();
    EXPECT_EQ(response.output_ir,
              runSession(smallRequest(), env).output_ir);
    server.stop();
    EXPECT_EQ(server.counters().protocol_errors, 0u);
}

TEST(OptServer, ReplyDoesNotWaitOutTheDisconnectPoll)
{
    // The per-request disconnect watcher polls for a hang-up every
    // 20 ms. A finished session must wake it instead of waiting out
    // the poll interval before its reply goes out. An unparsable
    // module fails inside the session in microseconds, so the round
    // trip is almost pure server overhead; the fastest of several
    // stays far below one poll interval unless the reply is held back.
    ServerOptions options;
    options.socket_path = tempPath("latency") + ".sock";
    options.quiet = true;
    OptServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeRequest request = smallRequest();
    request.ir_text = "not a module";
    double fastest = 1e9;
    for (int i = 0; i < 10; ++i) {
        auto begin = std::chrono::steady_clock::now();
        ServeResponse response = roundTrip(options.socket_path, request);
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
        EXPECT_EQ(response.exit_code, 1);
        fastest = std::min(fastest, ms);
    }
    EXPECT_LT(fastest, 10.0)
        << "every reply waited out the watcher's poll interval";
    server.stop();
    EXPECT_EQ(server.counters().requests, 10u);
}

TEST(OptServer, StopIsCleanAndIdempotent)
{
    ServerOptions options;
    options.socket_path = tempPath("stop") + ".sock";
    options.quiet = true;
    {
        OptServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        EXPECT_TRUE(server.running());
        server.stop();
        EXPECT_FALSE(server.running());
        server.stop(); // idempotent
        // The socket file is gone: a second server can bind the path.
        OptServer second(options);
        ASSERT_TRUE(second.start(&error)) << error;
        second.stop();
    } // destructor after stop() must also be safe
}

TEST(OptServer, CachePersistsAcrossServerLifetimes)
{
    std::string cache_file = tempPath("persist") + ".cache";
    ServerOptions options;
    options.socket_path = tempPath("persist") + ".sock";
    options.cache_file = cache_file;
    options.save_every = 0; // save at shutdown only
    options.quiet = true;

    uint64_t first_misses = 0;
    {
        OptServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        ServeResponse response =
            roundTrip(options.socket_path, smallRequest());
        ASSERT_EQ(response.exit_code, 0) << response.error;
        first_misses = response.pass_cache_misses;
        server.stop();
        EXPECT_GE(server.counters().cache_saves, 1u);
    }
    EXPECT_GT(first_misses, 0u);
    {
        // A fresh daemon starts warm from the persisted store.
        OptServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(&error)) << error;
        EXPECT_GT(server.cache()->stats().disk_entries_loaded, 0u);
        ServeResponse response =
            roundTrip(options.socket_path, smallRequest());
        ASSERT_EQ(response.exit_code, 0) << response.error;
        EXPECT_EQ(response.pass_cache_misses, 0u);
        EXPECT_EQ(response.evaluations, 0u);
        server.stop();
    }
    std::remove(cache_file.c_str());
}

} // namespace
} // namespace seer::core
