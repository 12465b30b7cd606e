#include "core/server.h"

#include <chrono>
#include <condition_variable>
#include <iostream>

#include <unistd.h>

#include "support/exec_context.h"

namespace seer::core {

namespace {

/** One-string writes keep concurrent workers' log lines whole. */
void
logLine(const std::string &line)
{
    std::cerr << line;
}

} // namespace

OptServer::OptServer(ServerOptions options)
    : options_(std::move(options))
{
    EvalCacheConfig config;
    config.shards = options_.cache_shards;
    config.max_bytes = options_.cache_max_bytes;
    cache_ = std::make_shared<ExternalEvalCache>(true, config);

    server_exec_ = ExecContext::make();
    if (options_.mem_budget_bytes > 0) {
        server_exec_.setGovernor(std::make_shared<ResourceGovernor>(
            options_.mem_budget_bytes));
    }
    // The shared cache always charges the *server* governor: a request
    // budget bounds the request's own working set, not the footprint
    // of a store every request shares.
    cache_->pinExecContext(server_exec_);
}

OptServer::~OptServer()
{
    stop();
}

bool
OptServer::start(std::string *error)
{
    listen_fd_ = net::listenUnix(options_.socket_path, error);
    if (!listen_fd_.valid())
        return false;

    if (!options_.cache_file.empty()) {
        std::string load_error;
        size_t loaded = cache_->loadFile(options_.cache_file,
                                         &load_error);
        if (!options_.quiet) {
            ExternalEvalStats stats = cache_->stats();
            if (loaded > 0) {
                logLine("; seer-optd: cache: " +
                        std::to_string(loaded) +
                        " entries loaded from " + options_.cache_file +
                        "\n");
            } else if (stats.disk_load_failed) {
                logLine("; seer-optd: cache: cold start (" +
                        load_error + "; " +
                        std::to_string(stats.disk_entries_rejected) +
                        " records rejected)\n");
            }
        }
    }

    queue_ = std::make_unique<TaskQueue>(options_.workers);
    running_.store(true);
    stopping_.store(false);
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
OptServer::acceptLoop()
{
    while (!stopping_.load()) {
        // SIGTERM/SIGINT end the accept loop; active sessions observe
        // the same flag through their ExecContexts and degrade out.
        if (signalCancelRequested())
            break;
        if (!net::waitReadable(listen_fd_.get(), 100))
            continue;
        if (stopping_.load() || signalCancelRequested())
            break;
        std::string error;
        net::Fd client = net::acceptClient(listen_fd_.get(), &error);
        if (!client.valid()) {
            if (!error.empty() && !options_.quiet)
                logLine("; seer-optd: " + error + "\n");
            continue;
        }
        auto shared =
            std::make_shared<net::Fd>(std::move(client));
        queue_->post([this, shared] { handleClient(shared); });
    }
    running_.store(false);
}

void
OptServer::handleClient(std::shared_ptr<net::Fd> client)
{
    int fd = client->get();
    std::string payload;
    std::string io_error;
    net::IoStatus status = net::recvFrame(fd, payload, &io_error);
    if (status == net::IoStatus::Eof)
        return; // health probe / connect-and-go: a non-event
    if (status != net::IoStatus::Ok) {
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.protocol_errors;
        }
        ServeResponse bad;
        bad.exit_code = 1;
        bad.error = "bad request frame: " + io_error;
        net::sendFrame(fd, serializeResponse(bad), nullptr);
        return;
    }

    ServeRequest request;
    std::string parse_error;
    if (!parseRequest(payload, &request, &parse_error)) {
        {
            std::lock_guard<std::mutex> lock(counters_mutex_);
            ++counters_.protocol_errors;
        }
        ServeResponse bad;
        bad.exit_code = 1;
        bad.error = "bad request: " + parse_error;
        net::sendFrame(fd, serializeResponse(bad), nullptr);
        return;
    }

    // Session isolation: a fresh context per request. The disconnect
    // watcher cancels it (External) the moment the client hangs up, so
    // an orphaned request stops consuming the pool cooperatively.
    SessionEnv env;
    env.shared_cache = cache_;
    env.exec = ExecContext::make();
    env.max_deadline_seconds = options_.max_deadline_seconds;

    // The watcher polls every 20 ms but wakes at once when the session
    // finishes, so the reply never waits out a poll interval.
    std::mutex watch_mutex;
    std::condition_variable watch_cv;
    bool done = false;
    bool hung_up = false; // written by the watcher, read after join
    std::thread watcher([&] {
        std::unique_lock<std::mutex> lock(watch_mutex);
        while (!done) {
            if (net::peerHungUp(fd)) {
                hung_up = true;
                env.exec.requestCancel(CancelReason::External);
                return;
            }
            watch_cv.wait_for(lock, std::chrono::milliseconds(20),
                              [&] { return done; });
        }
    });

    auto begin = std::chrono::steady_clock::now();
    ServeResponse response = runSession(request, env);
    double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - begin)
            .count();

    {
        std::lock_guard<std::mutex> lock(watch_mutex);
        done = true;
    }
    watch_cv.notify_one();
    watcher.join();

    if (!hung_up)
        net::sendFrame(fd, serializeResponse(response), nullptr);

    uint64_t request_id;
    bool save_now = false;
    {
        std::lock_guard<std::mutex> lock(counters_mutex_);
        request_id = ++counters_.requests;
        if (response.exit_code == 1)
            ++counters_.failures;
        if (response.degraded)
            ++counters_.degraded;
        if (hung_up)
            ++counters_.client_gone;
        if (options_.save_every > 0 &&
            ++requests_since_save_ >= options_.save_every) {
            requests_since_save_ = 0;
            save_now = true;
        }
    }
    if (!options_.quiet) {
        // A non-default schedule is worth a note: the same kernel can
        // legitimately produce a different (still sound) optimum.
        std::string sched = request.schedule != "exhaustive"
                                ? ", schedule " + request.schedule
                                : "";
        logLine("; seer-optd: req #" + std::to_string(request_id) +
                ": exit " + std::to_string(response.exit_code) +
                ", " + std::to_string(response.pass_cache_hits) +
                " hits, " +
                std::to_string(response.pass_cache_misses) +
                " misses, " + std::to_string(response.evaluations) +
                " evals, " + std::to_string(seconds) + "s" + sched +
                (hung_up ? " (client gone)" : "") + "\n");
    }
    if (save_now)
        saveCache();
}

void
OptServer::saveCache()
{
    if (options_.cache_file.empty())
        return;
    std::lock_guard<std::mutex> lock(save_mutex_);
    std::string error;
    if (cache_->saveFile(options_.cache_file, &error)) {
        std::lock_guard<std::mutex> counters(counters_mutex_);
        ++counters_.cache_saves;
    } else if (!options_.quiet) {
        logLine("; seer-optd: cache save failed: " + error + "\n");
    }
}

void
OptServer::stop()
{
    bool was_stopping = stopping_.exchange(true);
    if (accept_thread_.joinable())
        accept_thread_.join();
    if (queue_) {
        // Drain: accepted clients still get their response; active
        // sessions wind down through the signal/cancel flags.
        queue_->shutdown();
        queue_.reset();
    }
    if (!was_stopping)
        saveCache();
    if (listen_fd_.valid()) {
        listen_fd_.reset();
        ::unlink(options_.socket_path.c_str());
    }
    running_.store(false);
}

ServerCounters
OptServer::counters() const
{
    std::lock_guard<std::mutex> lock(counters_mutex_);
    return counters_;
}

} // namespace seer::core
