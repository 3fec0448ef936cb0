/**
 * @file
 * powerchopd — simulation-as-a-service over the campaign layer.
 *
 * The daemon binds a Unix-domain (or loopback TCP) socket, accepts
 * protocol.hh requests on a thread per connection, and serves them
 * from the content-keyed ResultCache: a GET hit or a fully cached SIM
 * matrix costs a hash lookup. A SIM goes through the campaign batch
 * core (campaign.hh): lookupBatch() before admission, then, for the
 * misses, runAndRecordBatch() on the runner (serialized — the runner
 * is a single-driver pool), which records every terminal outcome
 * write-ahead in the cache journal before the response leaves the
 * socket. That journal is therefore a campaign journal: copied into
 * a campaign directory as journal.jsonl, it resumes the campaign.
 *
 * Byte-identity guarantee: a SIM response's payload is the
 * CampaignResult::reportJson() of the requested matrix, with per-job
 * payloads taken verbatim from the cache (each one a SimResult JSON
 * rendered exactly once, at first simulation). Since report rendering
 * is deterministic in (keys, outcomes, payloads), a served report —
 * cold, warm, or assembled from a restarted daemon's journal — is
 * byte-identical to the report.json a direct `powerchop campaign` of
 * the same matrix writes.
 *
 * The daemon publishes a "server" statusboard snapshot (hit/miss/
 * eviction counters, QPS, request latency quantiles) into
 * `<dir>/status/`, so `powerchop status` and `status --prom` watch a
 * serving daemon exactly like a running campaign.
 */

#ifndef POWERCHOP_SERVE_SERVER_HH
#define POWERCHOP_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "common/stats.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "sim/sim_runner.hh"
#include "sim/statusboard.hh"

namespace powerchop
{

/** powerchopd configuration. */
struct ServeOptions
{
    /** Unix-domain socket path (an existing socket file is
     *  replaced). Ignored when port != 0. */
    std::string socketPath;

    /** TCP port on 127.0.0.1; 0 selects the Unix socket. */
    unsigned short port = 0;

    /** Result-cache sizing and durability (result_cache.hh). */
    ResultCacheOptions cache;

    /** Runner pool size; 0 = defaultJobCount(). */
    unsigned runnerThreads = 0;

    /** Per-job stuck-run watchdog for misses; 0 disables. */
    double jobTimeoutSeconds = 0;

    /** listen(2) backlog for the accept queue. */
    int listenBacklog = 64;

    /** Connection cap: accepts past this many concurrent
     *  connections are shed with BUSY + close. 0 = unlimited. */
    unsigned maxConnections = 256;

    /** SIM admission queue depth: at most this many SIM misses may
     *  be queued or running behind the runner mutex; excess requests
     *  are shed with BUSY instead of waiting unboundedly.
     *  0 = unlimited. */
    unsigned simQueueDepth = 16;

    /** Reap a connection idle (no request in flight) this long;
     *  <= 0 disables. */
    double idleTimeoutSeconds = 300;

    /** Mid-frame read deadline: a peer that started a request line
     *  must deliver the next byte within this; <= 0 disables. */
    double readTimeoutSeconds = 30;

    /** Response write deadline: a peer that stops reading loses the
     *  connection after this; <= 0 disables. */
    double writeTimeoutSeconds = 30;

    /** Per-request wall deadline: an in-flight SIM past this is
     *  cancelled (SimOptions::cancelFlag) and answered
     *  "ERR deadline..."; <= 0 disables. */
    double requestDeadlineSeconds = 0;

    /** Grace granted to in-flight requests after the stop flag
     *  rises before their connections are forced shut. */
    double drainSeconds = 5;

    /** Shutdown flag the accept loop polls (SIGINT/SIGTERM). */
    const std::atomic<bool> *stopFlag = nullptr;

    /** Statusboard snapshot path; empty disables publishing. */
    std::string statusPath;

    /** Cadence floor of status publishing, seconds. */
    double statusIntervalSeconds = 0.25;

    /** Operational log lines (bind/accept/shutdown events). */
    std::function<void(const std::string &)> onEvent;
};

/** One-line human-readable summary of a daemon's counters. */
std::string serveSummary(const ServeStats &st);

/**
 * The daemon. Construction binds and listens (throws IoError when
 * the address is unusable), run() serves until the stop flag rises,
 * then drains connection threads and returns the lifetime counters.
 */
class SimServer
{
  public:
    explicit SimServer(const ServeOptions &opts);
    ~SimServer();

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /** Serve until the stop flag rises and return the lifetime
     *  counters. One call per server. */
    ServeStats run();

  private:
    struct Conn
    {
        std::thread thread;
        int fd = -1;
        std::atomic<bool> done{false};
        std::atomic<bool> busy{false}; ///< A request is in flight.
    };

    void event(const std::string &msg) const;
    void handleConnection(Conn *conn);
    ResponseStatus handleSim(const std::string &specJson,
                             std::string &payload);
    ServeStats stats() const;
    void reapConnections(bool all);
    void drainConnections();
    std::size_t liveConnections();

    ServeOptions opts_;
    ResultCache cache_;
    SimJobRunner runner_;
    int listenFd_ = -1;
    unsigned short boundPort_ = 0;
    double startedAt_ = 0;

    /** The runner pool must be driven from one thread at a time.
     *  Timed so a request-deadline waiter can give up and answer
     *  "ERR deadline" instead of queueing forever. */
    std::timed_mutex simMutex_;

    /** SIM misses queued or running behind simMutex_ (admission
     *  control compares this against simQueueDepth). */
    std::atomic<unsigned> simWaiters_{0};

    /** Rises when drain begins: handlers finish their current
     *  request, then close instead of reading the next one. */
    std::atomic<bool> draining_{false};

    /** Rises at the drain deadline: cooperatively cancels whatever
     *  SIM is still in flight (the batch core's interrupt flag). */
    std::atomic<bool> hardStop_{false};

    std::mutex connMutex_;
    std::list<Conn> conns_;

    std::atomic<std::uint64_t> requests_{0}, gets_{0}, sims_{0},
        errors_{0}, simulatedJobs_{0};
    std::atomic<std::uint64_t> shedConnections_{0},
        shedRequests_{0}, deadlineCancels_{0}, idleReaped_{0},
        readTimeouts_{0}, acceptRetries_{0}, droppedInFlight_{0};
    stats::Log2Histogram requestLatencyNs_;
};

} // namespace powerchop

#endif // POWERCHOP_SERVE_SERVER_HH
