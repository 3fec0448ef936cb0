#include "sim/campaign.hh"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>

#include <unistd.h>

#include "common/atomic_file.hh"
#include "common/clock.hh"
#include "common/flight_recorder.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/statusboard.hh"
#include "telemetry/trace.hh"
#include "workload/spec_io.hh"

namespace powerchop
{

namespace
{

/** Process-wide interrupt flag raised by the signal handlers. A
 *  namespace-scope atomic (zero-initialized before main) so the
 *  handler never races static-local initialization. */
std::atomic<bool> g_campaignInterrupt{false};

extern "C" void
campaignSignalHandler(int sig)
{
    // First signal: request a graceful drain. Second signal: the
    // drain is wedged or the user is insistent — exit immediately
    // with the conventional fatal-signal status. Both paths are
    // async-signal-safe (lock-free atomic + _exit).
    if (g_campaignInterrupt.exchange(true))
        ::_exit(128 + sig);
}

/** Canonical text of the SimOptions fields that can change a job's
 *  result (instrumentation options deliberately excluded: traces,
 *  metrics and audits never feed back into simulation). */
std::string
canonicalOptionsText(const SimOptions &opts)
{
    return csprintf(
        "options-v1\nmode=%s\nmaxInstructions=%llu\nmanageVpu=%d\n"
        "manageBpu=%d\nmanageMlc=%d\ntimeoutCycles=%.17g\n"
        "staticPolicy=%d,%d,%u\n",
        simModeName(opts.mode),
        static_cast<unsigned long long>(opts.maxInstructions),
        opts.manageVpu ? 1 : 0, opts.manageBpu ? 1 : 0,
        opts.manageMlc ? 1 : 0, opts.timeoutCycles,
        opts.staticPolicy.vpuOn ? 1 : 0,
        opts.staticPolicy.bpuOn ? 1 : 0,
        static_cast<unsigned>(opts.staticPolicy.mlc));
}

/** Single-line JSON error payload for a non-ok journal record. */
std::string
errorPayload(const JobOutcome &outcome)
{
    return csprintf("{\"error\":\"%s\",\"attempts\":%u}",
                    telemetry::jsonEscape(outcome.error).c_str(),
                    outcome.attempts);
}

/** Outcome counts by report category. */
struct StatusTally
{
    std::size_t ok = 0, failed = 0, timedOut = 0, resumable = 0;
};

StatusTally
tallyOutcomes(const std::vector<JobOutcome> &outcomes)
{
    StatusTally t;
    for (const auto &o : outcomes) {
        switch (o.status) {
          case JobStatus::Ok:
            ++t.ok;
            break;
          case JobStatus::Failed:
            ++t.failed;
            break;
          case JobStatus::TimedOut:
            ++t.timedOut;
            break;
          case JobStatus::Skipped:
          case JobStatus::Interrupted:
            ++t.resumable;
            break;
        }
    }
    return t;
}

} // namespace

bool
parseErrorPayload(const std::string &payload, std::string &error,
                  unsigned &attempts)
{
    // Inverse of errorPayload(): {"error":"<escaped>","attempts":N}.
    json::Value doc;
    if (!json::parse(payload, doc))
        return false;
    const json::Value *text = doc.find("error");
    const json::Value *count = doc.find("attempts");
    if (!text || !text->isString() || !count || !count->isNumber())
        return false;
    error = text->asString();
    attempts = static_cast<unsigned>(count->asUint64());
    return true;
}

std::uint64_t
campaignJobKey(const SimJob &job)
{
    std::string text = "powerchop-campaign-job-v1\n";
    text += "workload:\n";
    text += formatWorkloadSpec(job.workload);
    text += "machine:\n";
    text += job.machine.canonicalText();
    text += canonicalOptionsText(job.opts);
    return fnv1a64(text);
}

std::vector<std::uint64_t>
campaignJobKeys(const std::vector<SimJob> &jobs, CampaignKeyIndex *index)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(jobs.size());
    CampaignKeyIndex local;
    CampaignKeyIndex &seen = index ? *index : local;
    seen.clear();
    seen.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const std::uint64_t key = campaignJobKey(jobs[i]);
        const auto [it, fresh] = seen.emplace(key, i);
        if (!fresh) {
            fatal("campaign: jobs %zu and %zu have identical content "
                  "keys (duplicate matrix entry?)",
                  it->second, i);
        }
        keys.push_back(key);
    }
    return keys;
}

std::vector<SimJob>
expandCampaignMatrix(const std::vector<WorkloadSpec> &workloads,
                     const std::vector<std::string> &machines,
                     const std::vector<SimMode> &modes, InsnCount insns,
                     double timeoutCycles)
{
    std::vector<MachineConfig> configs;
    for (const std::string &name : machines)
        configs.push_back(machineConfigByName(name));

    std::vector<SimJob> jobs;
    jobs.reserve(workloads.size() * configs.size() * modes.size());
    for (const WorkloadSpec &workload : workloads) {
        for (const MachineConfig &machine : configs) {
            for (SimMode mode : modes) {
                SimJob job;
                job.workload = workload;
                job.machine = machine;
                job.opts.mode = mode;
                job.opts.maxInstructions = insns;
                job.opts.timeoutCycles = timeoutCycles;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

bool
CampaignResult::complete() const
{
    if (outcomes.empty())
        return true;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status != JobStatus::Ok ||
            payloads[i].empty()) {
            return false;
        }
    }
    return true;
}

std::string
CampaignResult::summary() const
{
    const StatusTally t = tallyOutcomes(outcomes);
    std::string s = csprintf(
        "%zu jobs: %zu replayed from journal, %zu executed; "
        "%zu ok, %zu failed, %zu timed out, %zu resumable",
        outcomes.size(), replayed, executed, t.ok, t.failed,
        t.timedOut, t.resumable);
    if (staleRecords > 0)
        s += csprintf("; %zu stale records rejected", staleRecords);
    if (corruptedRecords + truncatedRecords > 0) {
        s += csprintf("; journal recovered around %zu corrupt / %zu "
                      "torn lines",
                      corruptedRecords, truncatedRecords);
    }
    if (workerCrashes + workerRestarts + redispatches > 0) {
        s += csprintf("; supervisor: %zu worker crashes, %zu "
                      "restarts, %zu re-dispatches",
                      workerCrashes, workerRestarts, redispatches);
    }
    if (interrupted)
        s += " [interrupted: resume with --resume]";
    return s;
}

std::string
CampaignResult::reportJson() const
{
    const StatusTally t = tallyOutcomes(outcomes);

    // Only run-invariant data belongs here: a resumed campaign's
    // report must be byte-identical to an uninterrupted run's.
    std::string s = csprintf(
        "{\"campaign\":{\"jobs\":%zu,\"ok\":%zu,\"failed\":%zu,"
        "\"timed_out\":%zu,\"resumable\":%zu},\n\"results\":[\n",
        outcomes.size(), t.ok, t.failed, t.timedOut, t.resumable);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        s += csprintf("{\"key\":\"%016llx\",\"status\":\"%s\"",
                      static_cast<unsigned long long>(keys[i]),
                      jobStatusName(outcomes[i].status));
        if (outcomes[i].status == JobStatus::Ok &&
            !payloads[i].empty()) {
            s += ",\"result\":" + payloads[i];
        } else if (!outcomes[i].error.empty()) {
            s += csprintf(
                ",\"error\":\"%s\"",
                telemetry::jsonEscape(outcomes[i].error).c_str());
        }
        s += "}";
        if (i + 1 < outcomes.size())
            s += ",";
        s += "\n";
    }
    s += "]}\n";
    return s;
}

void
makeCampaignDirs(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw IoError(csprintf("%s: mkdir failed: %s", dir.c_str(),
                               ec.message().c_str()));
    }
}

std::atomic<bool> &
campaignInterruptFlag()
{
    return g_campaignInterrupt;
}

void
installCampaignSignalHandlers()
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = campaignSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // no SA_RESTART: let blocking waits observe it
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
}

CampaignStatus::CampaignStatus(std::string path, std::string role,
                               std::string label,
                               const SimJobRunner &runner)
    : publisher_(std::move(path)), role_(std::move(role)),
      label_(std::move(label)), runner_(runner),
      start_(monotonicSeconds()),
      tallyStart_(simulatedInstructionTally())
{
}

CampaignStatus::~CampaignStatus()
{
    stopHeartbeat();
}

void
CampaignStatus::begin(std::size_t jobs, std::size_t replayed)
{
    total_ = jobs;
    replayed_ = replayed;
    heartbeat_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
            publisher_.publish(snapshot(false));
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    });
}

void
CampaignStatus::jobStarted(std::uint64_t key)
{
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        inflight_.push_back(key);
    }
    publisher_.publish(snapshot(false));
}

void
CampaignStatus::jobFinished(std::uint64_t key, const JobOutcome &outcome)
{
    done_.fetch_add(1);
    if (outcome.status == JobStatus::Ok)
        ok_.fetch_add(1);
    else if (outcome.status == JobStatus::Failed ||
             outcome.status == JobStatus::TimedOut)
        failed_.fetch_add(1);
    if (outcome.attempts > 1)
        retried_.fetch_add(outcome.attempts - 1);
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        const auto it = std::find(inflight_.begin(), inflight_.end(), key);
        if (it != inflight_.end())
            inflight_.erase(it);
    }
    publisher_.publish(snapshot(false));
}

void
CampaignStatus::finish()
{
    stopHeartbeat();
    publisher_.publish(snapshot(true), true);
}

void
CampaignStatus::stopHeartbeat()
{
    stop_.store(true, std::memory_order_relaxed);
    if (heartbeat_.joinable())
        heartbeat_.join();
}

StatusSnapshot
CampaignStatus::snapshot(bool finished)
{
    StatusSnapshot snap;
    snap.role = role_;
    snap.label = label_;
    snap.jobsTotal = total_;
    const std::size_t executed_done = done_.load();
    snap.jobsDone = replayed_ + executed_done;
    snap.jobsOk = replayed_ + ok_.load();
    snap.jobsFailed = failed_.load();
    snap.jobsRetried = retried_.load();
    {
        std::lock_guard<std::mutex> lock(inflightMutex_);
        snap.inFlight = inflight_;
    }
    const double elapsed = monotonicSeconds() - start_;
    if (elapsed > 0) {
        snap.mips = static_cast<double>(simulatedInstructionTally() -
                                        tallyStart_) /
                    elapsed / 1e6;
    }
    const std::size_t pending = total_ - replayed_;
    if (!finished && executed_done > 0 && elapsed > 0 &&
        executed_done < pending) {
        snap.etaSeconds =
            (pending - executed_done) * (elapsed / executed_done);
    }
    snap.finished = finished;
    snap.jobLatencyMs = runner_.report().taskLatencyNs.quantiles(1e-6);
    snap.fsyncLatencyMs = fsyncLatencyNs_.quantiles(1e-6);
    telemetry::StageProfiler &prof = telemetry::StageProfiler::global();
    if (prof.enabled())
        snap.stages = prof.snapshot();
    return snap;
}

ResultCacheOptions
campaignStoreOptions(const std::string &journalPath)
{
    return {.maxBytes = SIZE_MAX,
            .journalPath = journalPath,
            .compactDeadRatio = 0};
}

BatchLookup
lookupBatch(ResultCache &store, const std::vector<SimJob> &jobs,
            const CampaignOptions &opts)
{
    BatchLookup lookup;
    CampaignResult &result = lookup.result;
    result.keys = campaignJobKeys(jobs);
    result.outcomes.resize(jobs.size());
    result.payloads.resize(jobs.size());
    result.corruptedRecords = store.corruptedRecords();
    result.truncatedRecords = store.truncatedRecords();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!store.get(result.keys[i], &result.payloads[i])) {
            lookup.pending.push_back(i);
            continue;
        }
        result.outcomes[i].attempts = 0; // replayed (status Ok)
        ++result.replayed;
        if (opts.onJobDone)
            opts.onJobDone(result.keys[i], result.outcomes[i]);
    }
    return lookup;
}

CampaignResult
runAndRecordBatch(SimJobRunner &runner, ResultCache &store,
                  const std::vector<SimJob> &jobs, BatchLookup lookup,
                  const CampaignOptions &opts, CampaignStatus *status)
{
    CampaignResult &result = lookup.result;
    const std::vector<std::size_t> &pendingIndex = lookup.pending;
    result.executed = pendingIndex.size();

    const std::atomic<bool> *interrupt =
        opts.interruptFlag ? opts.interruptFlag
                           : &campaignInterruptFlag();
    if (status) {
        status->begin(jobs.size(), result.replayed);
        store.setFlushLatencyHistogram(status->fsyncLatencyNs());
    }

    if (!pendingIndex.empty()) {
        std::vector<SimJob> pending;
        pending.reserve(pendingIndex.size());
        for (std::size_t i : pendingIndex)
            pending.push_back(jobs[i]);

        std::atomic<std::size_t> done{0};
        RobustRunOptions robust;
        robust.timeoutSeconds = opts.timeoutSeconds;
        robust.maxRetries = opts.maxRetries;
        robust.cancelFlag = interrupt;
        robust.drainSeconds = opts.drainSeconds;
        robust.onComplete = [&](std::size_t pi, const SimResult &res,
                                const JobOutcome &outcome) {
            // Write-ahead: the record is durable (fsync'd) before
            // the job counts as done. Resumable states (skipped /
            // interrupted) record nothing — they carry no result
            // and rerun on resume.
            const std::size_t i = pendingIndex[pi];
            const std::uint64_t key = result.keys[i];
            if (opts.preJournal)
                opts.preJournal(key, outcome);
            switch (outcome.status) {
              case JobStatus::Ok:
                // Rendered exactly once: the record and the result
                // hold the same bytes, and every later hit serves
                // them verbatim.
                result.payloads[i] = res.toJson();
                store.put(key, result.payloads[i]);
                break;
              case JobStatus::Failed:
              case JobStatus::TimedOut:
                store.putFailure(key, jobStatusName(outcome.status),
                                 errorPayload(outcome));
                break;
              case JobStatus::Skipped:
              case JobStatus::Interrupted:
                break;
            }

            FlightRecorder::global().record(
                FlightEventType::JobFinish, key,
                jobStatusName(outcome.status));
            if (status)
                status->jobFinished(key, outcome);
            if (opts.onJobDone)
                opts.onJobDone(key, outcome);
            if (opts.onProgress)
                opts.onProgress(done.fetch_add(1) + 1, pending.size());
        };
        robust.onStart = [&](std::size_t pi) {
            const std::uint64_t key = result.keys[pendingIndex[pi]];
            FlightRecorder::global().record(FlightEventType::JobStart,
                                            key);
            if (status)
                status->jobStarted(key);
        };

        const RobustBatchResult batch =
            runner.runRobust(pending, robust);
        for (std::size_t pi = 0; pi < pending.size(); ++pi)
            result.outcomes[pendingIndex[pi]] = batch.outcomes[pi];

        // Interrupted-exit hygiene: every record is fsync'd as it is
        // appended; drain the flush hooks a failed append armed
        // exactly once, so a fatal() fired later cannot double-flush.
        drainFlushHooks();
    }

    result.interrupted =
        interrupt->load(std::memory_order_relaxed) ||
        std::any_of(result.outcomes.begin(), result.outcomes.end(),
                    [](const JobOutcome &o) {
                        return o.status == JobStatus::Skipped ||
                               o.status == JobStatus::Interrupted;
                    });
    return std::move(result);
}

CampaignResult
runJournaledBatch(SimJobRunner &runner, ResultCache &store,
                  const std::vector<SimJob> &jobs,
                  const CampaignOptions &opts, CampaignStatus *status)
{
    return runAndRecordBatch(runner, store, jobs,
                             lookupBatch(store, jobs, opts), opts, status);
}

CampaignResult
runCampaign(SimJobRunner &runner, const std::vector<SimJob> &jobs,
            const std::string &dir, const CampaignOptions &opts)
{
    makeCampaignDirs(dir);
    const std::string journal_path = dir + "/journal.jsonl";

    // Resume exactly when a journal exists. A --resume that finds no
    // journal is a mistyped directory, not a fresh campaign: failing
    // loudly beats silently re-running the whole matrix somewhere
    // unexpected.
    const bool journaled = std::filesystem::exists(journal_path);
    if (journaled && !opts.resume) {
        fatal("campaign: %s already exists; pass --resume to "
              "continue it or choose a fresh directory",
              journal_path.c_str());
    }
    if (!journaled && opts.resume) {
        fatal("campaign: --resume but no journal at %s; check the "
              "campaign directory",
              journal_path.c_str());
    }

    std::unique_ptr<CampaignStatus> status;
    if (opts.publishStatus) {
        makeCampaignDirs(statusDirPath(dir));
        status = std::make_unique<CampaignStatus>(
            campaignStatusPath(dir), "campaign", "campaign", runner);
    }

    ResultCache store(campaignStoreOptions(journal_path));
    CampaignResult result =
        runJournaledBatch(runner, store, jobs, opts, status.get());
    // Every ok record the store replayed that satisfied no job is
    // stale (nothing was put before the lookup).
    result.staleRecords = store.warmStarted() - result.replayed;
    if (result.staleRecords > 0) {
        warn("campaign: %zu journal records match no current job "
             "(spec or machine config changed); they were ignored and "
             "the jobs rerun",
             result.staleRecords);
    }

    // The merged report is rebuilt from scratch on every invocation
    // and written crash-safely: readers never see a torn file.
    atomicWriteFile(dir + "/report.json", result.reportJson());
    if (status)
        status->finish();
    return result;
}

} // namespace powerchop
