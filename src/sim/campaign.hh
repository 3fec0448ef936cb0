/**
 * @file
 * Durable simulation campaigns: crash-safe, resumable evaluation
 * sweeps on top of SimJobRunner.
 *
 * The paper's evaluation is a wide matrix — workloads x machines x
 * modes x fault seeds — and a crash or Ctrl-C at hour N must not
 * throw away completed points. A campaign gives every job a
 * deterministic content key (a hash of the workload spec, the full
 * MachineConfig, the mode and run options, and the instruction
 * budget) and journals each finished SimResult to an fsync'd
 * write-ahead JSONL file before counting it done. Resuming replays
 * the journal, verifies each record's key and checksum, skips every
 * completed job and re-dispatches only the remainder; the merged
 * campaign report is bit-identical to an uninterrupted run.
 *
 * Shutdown is signal-aware: SIGINT/SIGTERM raise the campaign
 * interrupt flag, undispatched jobs are skipped, in-flight jobs get a
 * drain deadline (cooperative cancellation through the existing
 * SimOptions::cancelFlag), the journal is flushed, and the CLI exits
 * with a distinct "interrupted, resumable" status.
 */

#ifndef POWERCHOP_SIM_CAMPAIGN_HH
#define POWERCHOP_SIM_CAMPAIGN_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/hash.hh"
#include "serve/result_cache.hh"
#include "sim/sim_runner.hh"
#include "sim/statusboard.hh"

namespace powerchop
{

/**
 * Deterministic content key of one campaign job: FNV-1a 64 over the
 * canonical text of (workload spec, machine config, mode, unit
 * management switches, timeout override, static policy, instruction
 * budget). Any change to a field that can change the job's result
 * changes the key, so stale journal records never satisfy a resumed
 * job they no longer describe.
 */
std::uint64_t campaignJobKey(const SimJob &job);

/** Job index by content key. */
using CampaignKeyIndex = std::unordered_map<std::uint64_t, std::size_t>;

/**
 * The content keys of `jobs`, in order. Two jobs with the same key
 * describe the byte-identical job, so a duplicate is refused with
 * fatal() rather than journaled ambiguously. When `index` is given it
 * receives the key -> job index map.
 */
std::vector<std::uint64_t> campaignJobKeys(const std::vector<SimJob> &jobs,
                                           CampaignKeyIndex *index = nullptr);

/**
 * The campaign matrix workloads x machines x modes, expanded
 * workload-major: the one order the CLI, powerchopd and bench_serve
 * share, so equal axes give equal job lists and content keys. Each
 * caller resolves workload names its own way (the CLI accepts spec
 * files). Machines are named "server" or "mobile"; any other name is
 * fatal().
 */
std::vector<SimJob> expandCampaignMatrix(
    const std::vector<WorkloadSpec> &workloads,
    const std::vector<std::string> &machines,
    const std::vector<SimMode> &modes, InsnCount insns,
    double timeoutCycles);

/** Campaign execution knobs and hooks (runCampaign() and the batch
 *  core: lookupBatch(), runAndRecordBatch()). */
struct CampaignOptions
{
    /** Resume from an existing journal. Without this flag a campaign
     *  directory that already holds a journal is refused (fatal), so
     *  accidental reuse cannot silently mix unrelated sweeps.
     *  runCampaign() only: a batch always starts from its store. */
    bool resume = false;

    /** Per-job stuck-run watchdog in wall-clock seconds; 0 disables.
     *  An overrunning job is cooperatively cancelled and journaled
     *  as a timed-out record instead of hanging the campaign. */
    double timeoutSeconds = 0;

    /** Extra attempts for jobs flagged transient. */
    unsigned maxRetries = 0;

    /** Grace period for in-flight jobs after an interrupt. */
    double drainSeconds = 5.0;

    /** Interrupt flag the campaign polls; defaults to the process-
     *  wide flag raised by installCampaignSignalHandlers(). Tests
     *  point it at their own flag. */
    const std::atomic<bool> *interruptFlag = nullptr;

    /** Progress callback: (jobs completed this run, jobs dispatched
     *  this run). Runs on worker threads; must be thread-safe. */
    std::function<void(std::size_t, std::size_t)> onProgress;

    /** Publish live status snapshots to `dir`/status/campaign.json
     *  (statusboard.hh) while the campaign runs. Write-only side
     *  channel: report.json and the journal are byte-identical with
     *  it on or off. runCampaign() only. */
    bool publishStatus = false;

    /** Invoked on the worker thread immediately BEFORE a terminal
     *  record is appended to the journal. The crash-injection hook
     *  of the shard containment tests lives here: a crash at this
     *  point is the worst case, after the work but before
     *  durability, so the job must rerun after a restart. */
    std::function<void(std::uint64_t key, const JobOutcome &)>
        preJournal;

    /** Invoked once per job as it settles: after its terminal record
     *  is durable (or, for a resumable outcome, in place of one), and,
     *  in job order, for each job the store already holds (attempts
     *  0). The campaign-worker's protocol emission. Must be
     *  thread-safe. */
    std::function<void(std::uint64_t key, const JobOutcome &)> onJobDone;
};

/**
 * Decode a non-ok journal payload written by a campaign (an
 * `{"error":...,"attempts":N}` object) back into the outcome fields.
 * Used by the shard merge step so a merged report renders the same
 * error text a live single-process run would.
 * @return false when the payload is not an error object.
 */
bool parseErrorPayload(const std::string &payload, std::string &error,
                       unsigned &attempts);

/** What a campaign invocation accomplished. */
struct CampaignResult
{
    /** One entry per job, in spec order. @{ */
    std::vector<std::uint64_t> keys;
    std::vector<JobOutcome> outcomes;
    /** The job's SimResult JSON ("" when not completed): journal
     *  payloads for replayed jobs, freshly rendered for executed
     *  ones — byte-identical either way. */
    std::vector<std::string> payloads;
    /** @} */

    /** Jobs satisfied from the journal without re-running. */
    std::size_t replayed = 0;

    /** Jobs dispatched to the runner this invocation. */
    std::size_t executed = 0;

    /** Ok journal records whose key matched no current job (stale:
     *  the spec or a MachineConfig changed since they were
     *  written). They are ignored, never merged. runCampaign()
     *  only. */
    std::size_t staleRecords = 0;

    /** Journal lines dropped as corrupt or torn. */
    std::size_t corruptedRecords = 0;
    std::size_t truncatedRecords = 0;

    /** The campaign was interrupted (resumable). */
    bool interrupted = false;

    /** Supervision tallies (sharded campaigns only; all zero for
     *  in-process runs). Summary-only: reportJson() excludes them so
     *  a supervised run's report stays byte-identical to a
     *  single-process run's. @{ */
    std::size_t workerCrashes = 0;
    std::size_t workerRestarts = 0;
    std::size_t redispatches = 0;
    /** @} */

    /** @return true when every job has an ok result. */
    bool complete() const;

    /** One-line human-readable summary. */
    std::string summary() const;

    /**
     * The merged campaign report: job count, ok/failed tallies and
     * every per-job record (key, status, SimResult JSON) in spec
     * order. Deliberately excludes run-varying data (timings,
     * replay/executed split), so an interrupted-and-resumed campaign
     * renders byte-identically to an uninterrupted one.
     */
    std::string reportJson() const;
};

/**
 * Run (or resume) a campaign.
 *
 * Creates `dir` if needed, runs runJournaledBatch() on a store over
 * `dir`/journal.jsonl (refusing a journal without opts.resume and a
 * resume without a journal), and atomically rewrites
 * `dir`/report.json from the merged results.
 *
 * @param runner Worker pool to dispatch on.
 * @param jobs   The full campaign matrix, in canonical order.
 * @param dir    Campaign state directory (journal + report).
 * @param opts   Durability / shutdown knobs.
 * @return the merged result.
 */
CampaignResult runCampaign(SimJobRunner &runner,
                           const std::vector<SimJob> &jobs,
                           const std::string &dir,
                           const CampaignOptions &opts = {});

/**
 * Live status of one journaled batch, published to a statusboard
 * file (statusboard.hh): done/ok/failed/retried tallies, in-flight
 * keys, MIPS, ETA, job and journal-fsync latency and the stage table.
 * Refreshed on every job start and finish, and by a 100ms heartbeat
 * thread so one long job cannot leave the snapshot stale.
 * runCampaign() publishes its "campaign" snapshot through one; each
 * campaign-worker process publishes its "shard-worker" snapshot
 * through another. Write-only side channel: nothing read here feeds
 * back into the journal or the report.
 */
class CampaignStatus
{
  public:
    /** @param runner The runner whose job latency is reported; must
     *                outlive this tracker. */
    CampaignStatus(std::string path, std::string role,
                   std::string label, const SimJobRunner &runner);
    ~CampaignStatus();

    CampaignStatus(const CampaignStatus &) = delete;
    CampaignStatus &operator=(const CampaignStatus &) = delete;

    /** Batch events (runAndRecordBatch()). begin() also starts the
     *  heartbeat thread. Thread-safe. @{ */
    void begin(std::size_t jobs, std::size_t replayed);
    void jobStarted(std::uint64_t key);
    void jobFinished(std::uint64_t key, const JobOutcome &outcome);
    /** @} */

    /** Stop the heartbeat and publish the terminal snapshot, forced
     *  past the cadence gate: a reader of a finished batch sees its
     *  final tallies. */
    void finish();

    /** Journal fsync latency sink (nanoseconds). */
    stats::Log2Histogram *fsyncLatencyNs() { return &fsyncLatencyNs_; }

  private:
    StatusSnapshot snapshot(bool finished);
    void stopHeartbeat();

    StatusPublisher publisher_;
    const std::string role_, label_;
    const SimJobRunner &runner_;
    const double start_;
    const InsnCount tallyStart_;
    std::size_t total_ = 0, replayed_ = 0;
    std::atomic<std::size_t> done_{0}, ok_{0}, failed_{0}, retried_{0};
    std::mutex inflightMutex_;
    std::vector<std::uint64_t> inflight_;
    stats::Log2Histogram fsyncLatencyNs_;
    std::atomic<bool> stop_{false};
    std::thread heartbeat_;
};

/** The store of a campaign or a campaign-worker: `journalPath`
 *  with no eviction and no compaction, so every replayed result stays
 *  resident and the journal only grows. */
ResultCacheOptions campaignStoreOptions(const std::string &journalPath);

/** What lookupBatch() found: the per-job result so far and the jobs
 *  still to run. */
struct BatchLookup
{
    /** Keys for every job; outcomes and payloads for store hits
     *  (replayed), plus the store's replay tallies. */
    CampaignResult result;

    /** Indices (into the jobs) of the misses, in job order. */
    std::vector<std::size_t> pending;
};

/**
 * The lookup step of the batch core every plane runs through: the
 * in-process runCampaign(), each campaign-worker process and
 * powerchopd's SIM handler.
 *
 * Derives the jobs' content keys (campaignJobKeys(), which refuses
 * duplicates with fatal()), satisfies each job the store holds — an
 * ok record; failed and timed-out records are history and rerun —
 * and lists the rest as pending. opts.onJobDone fires for each hit.
 */
BatchLookup lookupBatch(ResultCache &store, const std::vector<SimJob> &jobs,
                        const CampaignOptions &opts);

/**
 * The run-and-record step of the batch core: runs the pending jobs
 * on `runner` and records each terminal outcome in the store before
 * the job counts as done (an ok result through put(), rendered once
 * for the record and the result alike; failed and timed-out ones
 * through putFailure()). Resumable outcomes (skipped, interrupted)
 * record nothing and rerun next time.
 *
 * @param status Live status tracker, or nullptr for none; it must
 *               outlive the store, which samples journal fsyncs into
 *               its histogram.
 * @return per-job keys, outcomes and payloads in `jobs` order, plus
 *         the replay tallies; the caller renders any report.
 */
CampaignResult runAndRecordBatch(SimJobRunner &runner, ResultCache &store,
                                 const std::vector<SimJob> &jobs,
                                 BatchLookup lookup,
                                 const CampaignOptions &opts,
                                 CampaignStatus *status = nullptr);

/** lookupBatch() then runAndRecordBatch(): a whole campaign batch. */
CampaignResult runJournaledBatch(SimJobRunner &runner, ResultCache &store,
                                 const std::vector<SimJob> &jobs,
                                 const CampaignOptions &opts,
                                 CampaignStatus *status = nullptr);

/** Create `dir` (and parents), tolerating existing directories;
 *  throws IoError on failure. Shared by campaign and supervisor. */
void makeCampaignDirs(const std::string &dir);

/** The process-wide campaign interrupt flag. */
std::atomic<bool> &campaignInterruptFlag();

/**
 * Install SIGINT/SIGTERM handlers that raise the campaign interrupt
 * flag (first signal: graceful drain; second signal: immediate
 * _exit(128+sig) for a wedged drain). Idempotent.
 */
void installCampaignSignalHandlers();

/** Exit status of a campaign that was interrupted but is cleanly
 *  resumable with --resume. */
constexpr int campaignInterruptedExitStatus = 3;

} // namespace powerchop

#endif // POWERCHOP_SIM_CAMPAIGN_HH
