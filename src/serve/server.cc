#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/campaign.hh"
#include "sim/machine_config.hh"
#include "workload/suites.hh"

namespace powerchop
{

namespace
{

/** A SIM spec, decoded from the wire. */
struct SimSpec
{
    std::vector<std::string> workloads;
    std::vector<std::string> machines;
    std::vector<SimMode> modes;
    InsnCount insns = 200'000;
    double timeoutCycles = 0;
};

/** Non-fatal workload-name check against the built-in suite table
 *  (file paths are deliberately not servable: the daemon's matrix
 *  vocabulary must be content-addressable by name alone). */
bool
workloadExists(const std::string &name)
{
    for (const WorkloadSpec &w : allWorkloads()) {
        if (w.name == name)
            return true;
    }
    return false;
}

bool
parseStringList(const json::Value &doc, const char *key,
                std::vector<std::string> &out, std::string &err)
{
    const json::Value *arr = doc.find(key);
    if (!arr || !arr->isArray() || arr->elements().empty()) {
        err = csprintf("spec wants a non-empty \"%s\" array", key);
        return false;
    }
    for (const json::Value &v : arr->elements()) {
        if (!v.isString()) {
            err = csprintf("\"%s\" entries must be strings", key);
            return false;
        }
        // Distinct names expand to distinct content keys; a repeat
        // is refused here, before campaignJobKeys() would fatal().
        if (std::find(out.begin(), out.end(), v.asString()) != out.end()) {
            err = csprintf("duplicate \"%s\" entry \"%s\"", key,
                           v.asString().c_str());
            return false;
        }
        out.push_back(v.asString());
    }
    return true;
}

bool
parseSimSpec(const std::string &text, SimSpec &out, std::string &err)
{
    json::Value doc;
    if (!json::parse(text, doc) || !doc.isObject()) {
        err = "spec is not a JSON object";
        return false;
    }
    std::vector<std::string> modeNames;
    if (!parseStringList(doc, "workloads", out.workloads, err) ||
        !parseStringList(doc, "machines", out.machines, err) ||
        !parseStringList(doc, "modes", modeNames, err)) {
        return false;
    }
    for (const std::string &w : out.workloads) {
        if (!workloadExists(w)) {
            err = csprintf("unknown workload \"%s\"", w.c_str());
            return false;
        }
    }
    for (const std::string &m : out.machines) {
        if (m != "server" && m != "mobile") {
            err = csprintf("unknown machine \"%s\"", m.c_str());
            return false;
        }
    }
    for (const std::string &m : modeNames) {
        SimMode mode;
        if (!simModeFromName(m, mode)) {
            err = csprintf("unknown mode \"%s\"", m.c_str());
            return false;
        }
        out.modes.push_back(mode);
    }
    // A malformed number is refused, never coerced: a fallback or a
    // truncation would answer for a different job than was asked. A
    // present non-number reads as -1.
    const json::Value *insns = doc.find("insns");
    const json::Value *timeout = doc.find("timeout");
    const double n = insns ? insns->asDouble(-1) : 200'000;
    out.timeoutCycles = timeout ? timeout->asDouble(-1) : 0;
    if (!(n >= 1) || n != std::floor(n) || n >= 0x1p64) {
        err = "\"insns\" must be a positive integer";
        return false;
    }
    if (!(out.timeoutCycles >= 0) || !std::isfinite(out.timeoutCycles)) {
        err = "\"timeout\" must be a finite non-negative number";
        return false;
    }
    out.insns = static_cast<std::uint64_t>(n);
    return true;
}

/** Expand a spec exactly like the CLI's campaign matrix: identical
 *  order, identical content keys. */
std::vector<SimJob>
buildSpecJobs(const SimSpec &spec)
{
    std::vector<WorkloadSpec> workloads;
    for (const std::string &wname : spec.workloads)
        workloads.push_back(findWorkload(wname));
    return expandCampaignMatrix(workloads, spec.machines, spec.modes,
                                spec.insns, spec.timeoutCycles);
}

/** Matrix-size ceiling: bounds one request's memory and runner time
 *  (a wide tournament goes through campaigns, not one socket hit). */
constexpr std::size_t kMaxJobsPerRequest = 4096;

/** "<= 0 disables" seconds knob to a poll(2) millisecond budget. */
int
timeoutMs(double seconds)
{
    if (seconds <= 0)
        return -1;
    const double ms = seconds * 1e3;
    return ms < 1 ? 1 : static_cast<int>(ms);
}

/** Connection fds run O_NONBLOCK so the poll()-based read and write
 *  deadlines are authoritative — a blocking fd can park inside the
 *  syscall after poll() said ready. */
void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

std::string
serveSummary(const ServeStats &st)
{
    return csprintf(
        "%llu requests (%llu get, %llu sim, %llu err) in %.1fs: "
        "%llu hits, %llu misses, %llu evictions, %llu jobs "
        "simulated, %llu warm-started, %llu keys / %llu bytes "
        "resident; %llu conns + %llu requests shed, %llu deadline-"
        "cancelled, %llu idle-reaped, %llu compactions, %llu "
        "dropped in flight",
        static_cast<unsigned long long>(st.requests),
        static_cast<unsigned long long>(st.gets),
        static_cast<unsigned long long>(st.sims),
        static_cast<unsigned long long>(st.errors), st.uptimeSeconds,
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.misses),
        static_cast<unsigned long long>(st.evictions),
        static_cast<unsigned long long>(st.simulatedJobs),
        static_cast<unsigned long long>(st.warmStarted),
        static_cast<unsigned long long>(st.entries),
        static_cast<unsigned long long>(st.bytes),
        static_cast<unsigned long long>(st.shedConnections),
        static_cast<unsigned long long>(st.shedRequests),
        static_cast<unsigned long long>(st.deadlineCancels),
        static_cast<unsigned long long>(st.idleReaped),
        static_cast<unsigned long long>(st.compactions),
        static_cast<unsigned long long>(st.droppedInFlight));
}

SimServer::SimServer(const ServeOptions &opts)
    : opts_(opts), cache_(opts.cache),
      runner_(opts.runnerThreads)
{
    // A client that disconnects while a handler is mid-response must
    // cost that handler a failed write, not the daemon its life.
    serveIgnoreSigpipe();
    if (opts_.port != 0) {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            throw IoError(csprintf("socket failed: %s",
                                   std::strerror(errno)));
        }
        const int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        struct sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(opts_.port);
        if (::bind(listenFd_,
                   reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int saved = errno;
            ::close(listenFd_);
            listenFd_ = -1;
            throw IoError(csprintf("bind 127.0.0.1:%u failed: %s",
                                   opts_.port,
                                   std::strerror(saved)));
        }
        struct sockaddr_in bound = {};
        socklen_t len = sizeof(bound);
        if (::getsockname(
                listenFd_,
                reinterpret_cast<struct sockaddr *>(&bound),
                &len) == 0) {
            boundPort_ = ntohs(bound.sin_port);
        }
    } else {
        panicIf(opts_.socketPath.empty(),
                "SimServer wants a socket path or a port");
        struct sockaddr_un addr = {};
        if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
            throw IoError(csprintf(
                "socket path too long (%zu bytes, max %zu): %s",
                opts_.socketPath.size(), sizeof(addr.sun_path) - 1,
                opts_.socketPath.c_str()));
        }
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0) {
            throw IoError(csprintf("socket failed: %s",
                                   std::strerror(errno)));
        }
        // Replace a stale socket file from a previous daemon: bind
        // refuses an existing path, and serving is single-writer per
        // path by convention (like the campaign dir).
        ::unlink(opts_.socketPath.c_str());
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_,
                   reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const int saved = errno;
            ::close(listenFd_);
            listenFd_ = -1;
            throw IoError(csprintf("bind %s failed: %s",
                                   opts_.socketPath.c_str(),
                                   std::strerror(saved)));
        }
    }
    if (::listen(listenFd_,
                 opts_.listenBacklog > 0 ? opts_.listenBacklog
                                         : 64) != 0) {
        const int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        throw IoError(csprintf("listen failed: %s",
                               std::strerror(saved)));
    }
}

SimServer::~SimServer()
{
    reapConnections(true);
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (opts_.port == 0 && !opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
}

void
SimServer::event(const std::string &msg) const
{
    if (opts_.onEvent)
        opts_.onEvent(msg);
}

void
SimServer::reapConnections(bool all)
{
    std::list<Conn> finished;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (auto it = conns_.begin(); it != conns_.end();) {
            if (all && !it->done.load(std::memory_order_acquire) &&
                it->fd >= 0) {
                // Unstick a handler blocked in read(2): EOF its
                // socket. The handler owns the close.
                ::shutdown(it->fd, SHUT_RDWR);
            }
            if (all || it->done.load(std::memory_order_acquire)) {
                finished.splice(finished.end(), conns_, it++);
            } else {
                ++it;
            }
        }
    }
    for (Conn &c : finished) {
        if (c.thread.joinable())
            c.thread.join();
    }
}

std::size_t
SimServer::liveConnections()
{
    std::lock_guard<std::mutex> lock(connMutex_);
    return conns_.size();
}

void
SimServer::drainConnections()
{
    // Phase 1: connections with no request in flight get EOF'd
    // immediately — SHUT_RD only, so a handler that just picked up
    // a request can still write its response.
    draining_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (Conn &c : conns_) {
            if (!c.done.load(std::memory_order_acquire) &&
                !c.busy.load(std::memory_order_acquire) &&
                c.fd >= 0) {
                ::shutdown(c.fd, SHUT_RD);
            }
        }
    }
    // Phase 2: in-flight requests get drainSeconds to finish.
    const MonotonicDeadline deadline(opts_.drainSeconds);
    while (true) {
        reapConnections(false);
        if (liveConnections() == 0)
            return;
        if (opts_.drainSeconds <= 0 || deadline.expired())
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Phase 3: the grace expired. Cancel whatever SIM is running
    // (hardStop_ feeds every in-flight cancelFlag), count the
    // requests we are abandoning, and force the sockets shut.
    hardStop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (Conn &c : conns_) {
            if (!c.done.load(std::memory_order_acquire) &&
                c.busy.load(std::memory_order_acquire)) {
                droppedInFlight_.fetch_add(
                    1, std::memory_order_relaxed);
            }
        }
    }
    reapConnections(true);
}

ServeStats
SimServer::stats() const
{
    const auto load = [](const std::atomic<std::uint64_t> &counter) {
        return counter.load(std::memory_order_relaxed);
    };
    const ResultCacheStats cache = cache_.stats();
    ServeStats st;
    st.uptimeSeconds =
        startedAt_ > 0 ? monotonicSeconds() - startedAt_ : 0;
    st.requests = load(requests_);
    st.gets = load(gets_);
    st.sims = load(sims_);
    st.errors = load(errors_);
    st.simulatedJobs = load(simulatedJobs_);
    st.hits = cache.hits;
    st.misses = cache.misses;
    st.hitRate = cache.hits + cache.misses > 0
                     ? static_cast<double>(cache.hits) /
                           static_cast<double>(cache.hits + cache.misses)
                     : 0;
    st.insertions = cache.insertions;
    st.evictions = cache.evictions;
    st.entries = cache.entries;
    st.bytes = cache.bytes;
    st.warmStarted = cache_.warmStarted();
    st.qps = st.uptimeSeconds > 0
                 ? static_cast<double>(st.requests) / st.uptimeSeconds
                 : 0;
    st.shedConnections = load(shedConnections_);
    st.shedRequests = load(shedRequests_);
    st.deadlineCancels = load(deadlineCancels_);
    st.idleReaped = load(idleReaped_);
    st.readTimeouts = load(readTimeouts_);
    st.acceptRetries = load(acceptRetries_);
    st.droppedInFlight = load(droppedInFlight_);
    st.compactions = cache.compactions;
    st.journalRecords = cache.journalRecords;
    st.journalDeadRecords = cache.journalDeadRecords;
    st.requestLatencyMs = requestLatencyNs_.quantiles(1e-6);
    return st;
}

ResponseStatus
SimServer::handleSim(const std::string &specJson,
                     std::string &payload)
{
    SimSpec spec;
    std::string err;
    if (!parseSimSpec(specJson, spec, err)) {
        payload = err + "\n";
        return ResponseStatus::Err;
    }
    const std::vector<SimJob> jobs = buildSpecJobs(spec);
    if (jobs.size() > kMaxJobsPerRequest) {
        payload = csprintf("matrix of %zu jobs exceeds the per-"
                           "request ceiling of %zu\n",
                           jobs.size(), kMaxJobsPerRequest);
        return ResponseStatus::Err;
    }

    // Lookup first: a fully cached SIM never queues, never sheds.
    BatchLookup lookup = lookupBatch(cache_, jobs, {});
    if (lookup.pending.empty()) {
        payload = lookup.result.reportJson();
        return ResponseStatus::Hit;
    }

    // Misses run through the shared runner, which must be driven
    // from one thread at a time, so SIM misses serialize here;
    // GET/STATS traffic never waits on this. Admission control
    // bounds the line at that door.
    const MonotonicDeadline deadline(opts_.requestDeadlineSeconds);
    if (simWaiters_.fetch_add(1, std::memory_order_acq_rel) >=
            opts_.simQueueDepth &&
        opts_.simQueueDepth > 0) {
        simWaiters_.fetch_sub(1, std::memory_order_acq_rel);
        shedRequests_.fetch_add(1, std::memory_order_relaxed);
        payload = csprintf(
            "sim admission queue full (%u deep): retry after "
            "backoff\n",
            opts_.simQueueDepth);
        return ResponseStatus::Busy;
    }

    // A request that cannot reach the runner before its wall
    // deadline is cancelled while still in line.
    std::unique_lock<std::timed_mutex> lock(simMutex_, std::defer_lock);
    if (deadline.armed()) {
        if (!lock.try_lock_for(std::chrono::duration<double>(
                deadline.remainingSeconds()))) {
            simWaiters_.fetch_sub(1, std::memory_order_acq_rel);
            deadlineCancels_.fetch_add(1, std::memory_order_relaxed);
            payload = csprintf(
                "deadline: request exceeded the %.3fs wall "
                "deadline waiting for the runner\n",
                opts_.requestDeadlineSeconds);
            return ResponseStatus::Err;
        }
    } else {
        lock.lock();
    }

    // Cooperative cancel: the drain hard-stop cancels in-flight
    // jobs at the next block boundary. With a wall deadline armed,
    // an alarm thread raises a private flag on either condition.
    CampaignOptions copts;
    copts.timeoutSeconds = opts_.jobTimeoutSeconds;
    copts.drainSeconds = 0;
    std::atomic<bool> cancel{false}, alarmStop{false};
    copts.interruptFlag = deadline.armed() ? &cancel : &hardStop_;
    std::thread alarm;
    if (deadline.armed()) {
        alarm = std::thread([&] {
            while (!alarmStop.load(std::memory_order_relaxed)) {
                if (deadline.expired() ||
                    hardStop_.load(std::memory_order_relaxed)) {
                    cancel.store(true, std::memory_order_relaxed);
                    return;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        });
    }
    // Jobs that finish before a cancel still count: their results
    // are real and recorded.
    const CampaignResult result =
        runAndRecordBatch(runner_, cache_, jobs, std::move(lookup), copts);
    if (alarm.joinable()) {
        alarmStop.store(true, std::memory_order_relaxed);
        alarm.join();
    }
    lock.unlock();
    simWaiters_.fetch_sub(1, std::memory_order_acq_rel);
    simulatedJobs_.fetch_add(result.executed, std::memory_order_relaxed);

    std::size_t cancelled = 0;
    for (const JobOutcome &o : result.outcomes) {
        cancelled += o.status == JobStatus::Skipped ||
                     o.status == JobStatus::Interrupted;
    }
    if (deadline.expired() && cancelled > 0) {
        deadlineCancels_.fetch_add(1, std::memory_order_relaxed);
        payload = csprintf(
            "deadline: SIM exceeded the %.3fs wall deadline "
            "(%zu of %zu fresh jobs cancelled; finished jobs "
            "were cached)\n",
            opts_.requestDeadlineSeconds, cancelled, result.executed);
        return ResponseStatus::Err;
    }
    payload = result.reportJson();
    return ResponseStatus::Ok;
}

void
SimServer::handleConnection(Conn *conn)
{
    FdReader reader(conn->fd);
    const int idleMs = timeoutMs(opts_.idleTimeoutSeconds);
    const int readMs = timeoutMs(opts_.readTimeoutSeconds);
    const int writeMs = timeoutMs(opts_.writeTimeoutSeconds);
    std::string line;
    while (true) {
        const ReadOutcome ro =
            reader.readLineDeadline(line, idleMs, readMs);
        if (ro == ReadOutcome::TimedOut) {
            if (reader.buffered()) {
                // A half-sent request is a broken (or hostile)
                // peer: tell it why, then hang up.
                readTimeouts_.fetch_add(1, std::memory_order_relaxed);
                writeResponseDeadline(
                    conn->fd, ResponseStatus::Err,
                    "deadline: request read timed out mid-frame\n",
                    writeMs);
            } else {
                // Idle between requests past the budget: a slot a
                // live client could be using. Close quietly.
                idleReaped_.fetch_add(1, std::memory_order_relaxed);
            }
            break;
        }
        if (ro == ReadOutcome::TooLong) {
            writeResponseDeadline(
                conn->fd, ResponseStatus::Err,
                "request line exceeds the 1 MiB ceiling\n", writeMs);
            break;
        }
        if (ro != ReadOutcome::Ok)
            break; // EOF or transport error
        conn->busy.store(true, std::memory_order_release);
        const std::int64_t t0 = monotonicNanos();
        const Request req = parseRequestLine(line);
        requests_.fetch_add(1, std::memory_order_relaxed);

        ResponseStatus status = ResponseStatus::Err;
        std::string payload;
        switch (req.verb) {
          case RequestVerb::Get: {
            gets_.fetch_add(1, std::memory_order_relaxed);
            status = cache_.get(req.key, &payload)
                         ? ResponseStatus::Hit
                         : ResponseStatus::Miss;
            break;
          }
          case RequestVerb::Sim:
            sims_.fetch_add(1, std::memory_order_relaxed);
            status = handleSim(req.spec, payload);
            break;
          case RequestVerb::Stats:
            status = ResponseStatus::Ok;
            payload = stats().toJson() + "\n";
            break;
          case RequestVerb::Bad:
            payload = req.error + "\n";
            break;
        }
        if (status == ResponseStatus::Err)
            errors_.fetch_add(1, std::memory_order_relaxed);

        const bool sent =
            writeResponseDeadline(conn->fd, status, payload, writeMs);
        requestLatencyNs_.sample(static_cast<std::uint64_t>(
            monotonicNanos() - t0));
        conn->busy.store(false, std::memory_order_release);
        if (!sent)
            break; // peer went away (or stalled) mid-response
        if (draining_.load(std::memory_order_acquire))
            break; // finish the request in hand, then bow out
    }
    {
        // Close and invalidate under connMutex_, which drain and reap
        // hold while they shutdown() live fds: once closed, the fd
        // number can be reused by the next accept().
        std::lock_guard<std::mutex> lock(connMutex_);
        ::close(conn->fd);
        conn->fd = -1;
    }
    conn->done.store(true, std::memory_order_release);
}

ServeStats
SimServer::run()
{
    startedAt_ = monotonicSeconds();
    event(csprintf("serving on %s",
                   opts_.port != 0
                       ? csprintf("127.0.0.1:%u", boundPort_).c_str()
                       : opts_.socketPath.c_str()));
    if (cache_.warmStarted() > 0) {
        event(csprintf("warm-started %zu cached results from %s",
                       cache_.warmStarted(),
                       opts_.cache.journalPath.c_str()));
    }

    // Status publishing rides its own thread so snapshots stay fresh
    // while every handler thread is busy (mirrors the campaign
    // worker's heartbeat).
    std::unique_ptr<StatusPublisher> publisher;
    std::atomic<bool> statusStop{false};
    std::thread statusThread;
    if (!opts_.statusPath.empty()) {
        publisher = std::make_unique<StatusPublisher>(
            opts_.statusPath, opts_.statusIntervalSeconds);
        const auto makeSnapshot = [this](bool finished) {
            StatusSnapshot snap;
            snap.role = "server";
            snap.label = "powerchopd";
            snap.serve = stats();
            snap.jobsTotal = snap.jobsDone = snap.jobsOk =
                snap.serve.simulatedJobs;
            snap.finished = finished;
            return snap;
        };
        statusThread = std::thread([&, this] {
            while (!statusStop.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
                publisher->publish(makeSnapshot(false));
            }
            publisher->publish(makeSnapshot(true), true);
        });
    }

    while (!(opts_.stopFlag &&
             opts_.stopFlag->load(std::memory_order_relaxed))) {
        struct pollfd pfd = {};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int pr = ::poll(&pfd, 1, 100 /* ms */);
        if (pr < 0 && errno != EINTR)
            break;
        reapConnections(false);
        if (pr <= 0 || !(pfd.revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE ||
                errno == ENOBUFS || errno == ENOMEM) {
                // Out of descriptors/buffers: not fatal — back off
                // briefly so handlers can finish and free some.
                static LogRateLimiter limiter(2.0, 10.0);
                warnLimited(limiter,
                            "[powerchopd] accept failed: %s "
                            "(backing off)",
                            std::strerror(errno));
                acceptRetries_.fetch_add(1,
                                         std::memory_order_relaxed);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            static LogRateLimiter limiter(2.0, 10.0);
            warnLimited(limiter, "[powerchopd] accept failed: %s",
                        std::strerror(errno));
            acceptRetries_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        setNonBlocking(fd);
        if (opts_.maxConnections > 0 &&
            liveConnections() >= opts_.maxConnections) {
            // Over the cap: shed loudly (BUSY, not silence) so a
            // well-behaved client backs off instead of retrying
            // into a black hole.
            shedConnections_.fetch_add(1, std::memory_order_relaxed);
            writeResponseDeadline(
                fd, ResponseStatus::Busy,
                csprintf("connection cap (%u) reached: retry "
                         "after backoff\n",
                         opts_.maxConnections),
                1000);
            ::close(fd);
            continue;
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        conns_.emplace_back();
        Conn *conn = &conns_.back();
        conn->fd = fd;
        conn->thread =
            std::thread([this, conn] { handleConnection(conn); });
    }

    // Stop accepting the moment drain begins: the listening socket
    // closes before in-flight work is waited on, so a restarting
    // supervisor can bind the replacement immediately.
    event(csprintf("draining (%.1fs grace, %zu connections open)",
                   opts_.drainSeconds, liveConnections()));
    ::close(listenFd_);
    listenFd_ = -1;
    if (opts_.port == 0 && !opts_.socketPath.empty())
        ::unlink(opts_.socketPath.c_str());
    drainConnections();

    // Everything served is already fsync'd record-by-record, so no
    // journal flush is owed before the final statusboard snapshot.
    if (statusThread.joinable()) {
        statusStop.store(true, std::memory_order_relaxed);
        statusThread.join();
    }
    const ServeStats st = stats();
    event(serveSummary(st));
    return st;
}

} // namespace powerchop
