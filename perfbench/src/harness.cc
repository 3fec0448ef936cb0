/**
 * @file
 * The repo benchmark harness. One process runs one workload:
 *
 *   sweep          the paper matrix as one cold runCampaign() on an
 *                  in-process SimJobRunner with nproc workers
 *   sweep_sharded  the same matrix through runShardedCampaign() with
 *                  nproc single-threaded worker processes
 *   serve_cold     a fresh `powerchop serve` answering single-job SIMs
 *                  from nproc closed-loop clients, mostly misses
 *   serve_hot      `powerchop serve` warm-started from a journal of the
 *                  whole key space, answering GETs and multi-job SIMs
 *
 * It times calls into each layer's public functions from here; the
 * program itself carries no benchmark tracing. Every output is checked
 * (result digests, byte-equal served payloads) and the last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. With --trace 1 the run records host-time spans, writes
 * them as a Chrome trace and reports the per-layer metrics instead of
 * the end-to-end ones.
 */

#include <poll.h>
#include <signal.h>
#include <sys/inotify.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hh"
#include "common/clock.hh"
#include "common/flight_recorder.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/subprocess.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "sim/campaign.hh"
#include "sim/shard_supervisor.hh"
#include "sim/sim_runner.hh"
#include "workload/suites.hh"

using namespace powerchop;
namespace pb = perfbench;
namespace fs = std::filesystem;

namespace
{

/** Per-job instruction budgets. The sweep budget keeps one cold
 *  sweep near a second on four cores, so a run holds several. The
 *  serve budget keeps a miss's simulate() near 2.5 ms: each SIM miss
 *  batch joins the runner's 10 ms-period watchdog thread (and the
 *  daemon's 5 ms alarm thread), so miss service time rounds up to a
 *  multiple of 10 ms, and a job near a multiple flips between two
 *  service times with small host slowdowns. */
constexpr InsnCount kSweepInsns = 1'000'000;
constexpr InsnCount kServeInsns = 100'000;

/** Repeats per fresh key in serve_cold: the chance that a client
 *  sends, before a fresh key, a key another client sent moments
 *  earlier. Observed traffic on a 4-vCPU Xeon VM: bench_serve's Zipf
 *  1/(rank+1) mix over the 290-key space (4 clients x 500 GETs,
 *  read-through SIM on a miss, 1M instructions per job) against a
 *  cold `powerchop serve` simulated 262 jobs for 252 distinct keys,
 *  the same in two runs. */
constexpr double kRepeatShare = 10.0 / 252;

/** serve_hot splits its measured seconds into this many epochs, each
 *  a fresh warm start. */
constexpr unsigned kHotEpochs = 5;

/** Operations a run measures at least, so its printed tail reaches
 *  p99 with >= 10 samples beyond (the rule in tailQuantile()). */
constexpr std::size_t kTailSamples = 1000;

/** Blocking-path tolerance of the traced run: the time no layer span
 *  accounts for may be at most this share of the workload wall time. */
constexpr double kSpanTolerance = 0.05;

const SimMode kModes[] = {SimMode::FullPower, SimMode::PowerChop,
                          SimMode::MinPower, SimMode::TimeoutVpu,
                          SimMode::DrowsyMlc};

/** Keeps timed pure calls from being optimized away. */
std::atomic<std::size_t> g_sink{0};

double
now()
{
    return monotonicSeconds();
}

struct MetricSpec
{
    const char *name;
    const char *unit;
    const char *better;
};

/** End-to-end metrics: reported by every untraced run. */
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"mips", "M_insn/s", "higher"},
    {"rps", "1/s", "higher"},
    {"p50_ms", "ms", "lower"},
    {"p90_ms", "ms", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
};

/** Per-layer metrics: reported by every traced run (0 for a layer
 *  the workload does not exercise; see perfbench/README.md). */
const MetricSpec kPerLayer[] = {
    {"host.parallel_ceiling", "x", "higher"},
    {"host.steal_share", "ratio", "lower"},
    {"trace.overhead_pct", "%", "lower"},
    {"trace.unattributed_share", "ratio", "lower"},
    {"trace.spans", "count", "lower"},
    {"error_rate", "ratio", "lower"},
    {"client.samples", "count", "higher"},
    {"sim.ns_per_insn.full-power", "ns", "lower"},
    {"sim.ns_per_insn.powerchop", "ns", "lower"},
    {"sim.ns_per_insn.min-power", "ns", "lower"},
    {"sim.ns_per_insn.timeout-vpu", "ns", "lower"},
    {"sim.ns_per_insn.drowsy-mlc", "ns", "lower"},
    {"sim.guest_insns", "count", "lower"},
    {"sim.cycles", "count", "lower"},
    {"uarch.branch_lookups", "count", "lower"},
    {"uarch.branch_mispredicts", "count", "lower"},
    {"uarch.mlc_accesses", "count", "lower"},
    {"uarch.simd_emulated", "count", "lower"},
    {"core.pvt_lookups", "count", "lower"},
    {"core.pvt_hits", "count", "lower"},
    {"core.gate_switches", "count", "lower"},
    {"bt.translations", "count", "lower"},
    {"bt.tcache_hits", "count", "higher"},
    {"bt.tcache_misses", "count", "lower"},
    {"runner.wall_s", "s", "lower"},
    {"runner.busy_s", "s", "lower"},
    {"runner.speedup", "x", "higher"},
    {"runner.queue_wait_s", "s", "lower"},
    {"runner.offcpu_share", "ratio", "lower"},
    {"runner.inflation", "x", "lower"},
    {"runner.tail_idle_s", "s", "lower"},
    {"campaign.self_s", "s", "lower"},
    {"campaign.report_ms", "ms", "lower"},
    {"journal.append_us.p50", "us", "lower"},
    {"journal.append_us.tail", "us", "lower"},
    {"journal.records", "count", "lower"},
    {"journal.bytes", "bytes", "lower"},
    {"journal.replay_s", "s", "lower"},
    {"shard.wall_s", "s", "lower"},
    {"shard.children_cpu_s", "s", "lower"},
    {"shard.speedup", "x", "higher"},
    {"shard.restarts", "count", "lower"},
    {"shard.redispatches", "count", "lower"},
    {"shard.useful_ratio", "ratio", "higher"},
    {"result_cache.get_ns", "ns", "lower"},
    {"result_cache.put_us", "us", "lower"},
    {"result_cache.warm_start_s", "s", "lower"},
    {"result_cache.hit_rate", "ratio", "higher"},
    {"result_cache.evictions", "count", "lower"},
    {"result_cache.bytes", "bytes", "lower"},
    {"server.sims_executed", "count", "lower"},
    {"server.dup_sim_ratio", "ratio", "lower"},
    {"server.miss_wait_ms", "ms", "lower"},
    {"server.shed", "count", "lower"},
    {"client.get_hit_us", "us", "lower"},
    {"client.sim_hit_us", "us", "lower"},
    {"client.sim_miss_ms", "ms", "lower"},
    {"client.err", "count", "lower"},
    {"client.busy", "count", "lower"},
    {"protocol.parse_ns", "ns", "lower"},
};

/** The verdict, tallies and metrics of one run. */
class Result
{
  public:
    void set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    void fail(const std::string &why)
    {
        if (correct_)
            std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
        correct_ = false;
    }

    /** Count `n` attempted operations, `bad` of them failed. */
    void tally(std::size_t n, std::size_t bad)
    {
        attempted_ += n;
        failed_ += bad;
        if (bad > 0)
            fail(std::to_string(bad) + " of " + std::to_string(n) +
                 " operations failed");
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** The final JSON line. A metric the run should have measured but
     *  did not fails the run (traced runs report unexercised layers
     *  as 0 by design). */
    std::string json(bool traced)
    {
        std::string m;
        auto emit = [&](const MetricSpec &spec, double v) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                          m.empty() ? "" : ",", spec.name, v, spec.unit);
            m += buf;
        };
        if (traced) {
            for (const MetricSpec &s : kPerLayer)
                emit(s, values_.count(s.name) ? values_[s.name] : 0.0);
        } else {
            for (const MetricSpec &s : kEndToEnd) {
                const auto it = values_.find(s.name);
                if (it == values_.end() || !(it->second > 0))
                    fail(std::string("end-to-end metric not measured: ") +
                         s.name);
                emit(s, it == values_.end() ? 0.0 : it->second);
            }
        }
        char head[160];
        std::snprintf(head, sizeof(head),
                      "{\"correct\":%s,\"attempted\":%" PRIu64
                      ",\"failed\":%" PRIu64 ",\"metrics\":{",
                      correct_ ? "true" : "false",
                      std::max<std::uint64_t>(attempted_, 1), failed_);
        return head + m + "}}";
    }

  private:
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, double> values_;
};

/** One matrix entry with the names a SIM spec needs. */
struct MatrixJob
{
    SimJob job;
    std::string workload;
    std::string machine;
    std::string mode;
};

/** Every application model x mode, in workload-major order (the
 *  order of buildCampaignJobs and the server's spec expansion). With
 *  bothMachines each model runs on server then mobile; otherwise on
 *  its native machine only (MobileBench on mobile). */
std::vector<MatrixJob>
buildMatrix(InsnCount insns, bool bothMachines)
{
    std::vector<MatrixJob> out;
    for (const WorkloadSpec &w : allWorkloads()) {
        std::vector<std::string> machines;
        if (bothMachines)
            machines = {"server", "mobile"};
        else
            machines = {w.suite == Suite::MobileBench ? "mobile"
                                                      : "server"};
        for (const std::string &m : machines) {
            for (SimMode mode : kModes) {
                MatrixJob j;
                j.job.workload = w;
                j.job.machine =
                    m == "server" ? serverConfig() : mobileConfig();
                j.job.opts.mode = mode;
                j.job.opts.maxInstructions = insns;
                j.workload = w.name;
                j.machine = m;
                j.mode = simModeName(mode);
                out.push_back(std::move(j));
            }
        }
    }
    return out;
}

/** Exact modelled-work counts summed over result payloads. */
struct Counts
{
    std::map<std::string, double> sums;
    std::vector<double> insns; ///< Per payload.
};

Counts
countPayloads(const std::vector<std::string> &payloads)
{
    static const char *const fields[] = {
        "instructions", "cycles",        "branch_lookups",
        "branch_mispredicts", "mlc_accesses", "simd_emulated",
        "pvt_lookups",  "pvt_hits",      "vpu_switches",
        "bpu_switches", "mlc_switches",  "translations"};
    Counts c;
    for (const std::string &p : payloads) {
        json::Value v;
        if (!json::parse(p, v))
            throw std::runtime_error("unparseable result payload");
        for (const char *f : fields)
            c.sums[f] += static_cast<double>(v.getUint64(f));
        c.insns.push_back(static_cast<double>(v.getUint64("instructions")));
    }
    return c;
}

void
setCounts(Result &r, const Counts &c)
{
    auto s = [&](const char *f) {
        const auto it = c.sums.find(f);
        return it == c.sums.end() ? 0.0 : it->second;
    };
    r.set("sim.guest_insns", s("instructions"));
    r.set("sim.cycles", s("cycles"));
    r.set("uarch.branch_lookups", s("branch_lookups"));
    r.set("uarch.branch_mispredicts", s("branch_mispredicts"));
    r.set("uarch.mlc_accesses", s("mlc_accesses"));
    r.set("uarch.simd_emulated", s("simd_emulated"));
    r.set("core.pvt_lookups", s("pvt_lookups"));
    r.set("core.pvt_hits", s("pvt_hits"));
    r.set("core.gate_switches",
          s("vpu_switches") + s("bpu_switches") + s("mlc_switches"));
    r.set("bt.translations", s("translations"));
}

/** Run context shared by the workloads. */
struct Context
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string cli;
    std::string commit;
    std::map<std::string, std::string> expected;
    unsigned nproc = 1;
    std::atomic<bool> noInterrupt{false};
    pb::Tracer tracer{false};
    Result result;
    std::size_t scratchCounter = 0;

    /** A fresh, empty directory for one repetition. */
    std::string freshDir(const std::string &stem)
    {
        const std::string d = stem + "-" + std::to_string(scratchCounter++);
        fs::remove_all(d);
        return d;
    }
};

/** The seed-permuted job list of a sweep repetition. */
std::vector<SimJob>
permutedJobs(const std::vector<MatrixJob> &matrix, std::uint64_t seed)
{
    std::vector<SimJob> jobs;
    jobs.reserve(matrix.size());
    for (std::size_t i : pb::seededPermutation(seed, matrix.size()))
        jobs.push_back(matrix[i].job);
    return jobs;
}

void
checkDigest(Context &ctx, const std::string &which,
            const std::vector<std::uint64_t> &keys,
            const std::vector<std::string> &payloads)
{
    const std::string got = pb::resultDigest(keys, payloads);
    const auto it = ctx.expected.find(which);
    if (it == ctx.expected.end() || it->second != got) {
        ctx.result.tally(1, 1);
        ctx.result.fail("digest " + which + " is " + got + ", expected " +
                        (it == ctx.expected.end() ? "?" : it->second));
    } else {
        ctx.result.tally(1, 0);
    }
}

/** Solo timing: each job alone on this thread. */
struct Solo
{
    std::map<std::uint64_t, double> seconds; ///< By content key.
    std::map<std::string, std::pair<double, double>> byMode; ///< wall, insns
};

Solo
soloPass(Context &ctx, const std::vector<MatrixJob> &matrix)
{
    Solo s;
    // Jobs share one translation-metadata cache, as they do inside a
    // runner, so solo and in-batch times differ only by contention.
    TranslationMetadataCache tcache;
    const std::int64_t span = ctx.tracer.open("sim.solo", -1);
    for (const MatrixJob &j : matrix) {
        SimOptions opts = j.job.opts;
        opts.translationCache = &tcache;
        const double t0 = now();
        const SimResult r = simulate(j.job.machine, j.job.workload, opts);
        const double dt = now() - t0;
        s.seconds[campaignJobKey(j.job)] = dt;
        auto &m = s.byMode[j.mode];
        m.first += dt;
        m.second += static_cast<double>(r.instructions);
    }
    ctx.tracer.close(span);
    for (const auto &[mode, wi] : s.byMode)
        ctx.result.set("sim.ns_per_insn." + mode,
                       wi.second > 0 ? wi.first / wi.second * 1e9 : 0);
    return s;
}

/** Journal layer probe: durable appends of real payloads, then a
 *  replay of the file they made. */
void
journalProbe(Context &ctx, const std::vector<std::uint64_t> &keys,
             const std::vector<std::string> &payloads)
{
    const std::string path = ctx.freshDir("journal-probe") + ".jsonl";
    std::vector<double> us;
    {
        const std::int64_t span = ctx.tracer.open("journal.append", -1);
        JournalWriter w(path);
        for (std::size_t i = 0; i < keys.size(); ++i) {
            JournalRecord rec{keys[i], "ok", payloads[i]};
            const double t0 = now();
            w.append(rec);
            us.push_back((now() - t0) * 1e6);
        }
        ctx.tracer.close(span);
    }
    const std::int64_t span = ctx.tracer.open("journal.replay", -1);
    const double t0 = now();
    const JournalReplay replay = loadJournal(path);
    const double replay_s = now() - t0;
    ctx.tracer.close(span);
    if (replay.records.size() != keys.size())
        ctx.result.fail("journal probe replayed the wrong record count");
    ctx.result.set("journal.append_us.p50", pb::median(us));
    ctx.result.set("journal.append_us.tail", pb::tailQuantile(us, 99).value);
    ctx.result.set("journal.records", static_cast<double>(replay.lines));
    ctx.result.set("journal.bytes", static_cast<double>(fs::file_size(path)));
    ctx.result.set("journal.replay_s", replay_s);
    fs::remove(path);
}

/** Median wall of `reps` calls of fn, in seconds. */
double
medianTime(unsigned reps, const std::function<void()> &fn)
{
    std::vector<double> t;
    for (unsigned i = 0; i < reps; ++i) {
        const double t0 = now();
        fn();
        t.push_back(now() - t0);
    }
    return pb::median(t);
}

/** The informational comparison with the paper's headline numbers. */
void
printPaperComparison(const std::vector<MatrixJob> &matrix,
                     const CampaignResult &res)
{
    std::map<std::uint64_t, const MatrixJob *> byKey;
    for (const MatrixJob &j : matrix)
        byKey[campaignJobKey(j.job)] = &j;
    struct Pair
    {
        json::Value fp, pc;
    };
    std::map<std::string, Pair> apps;
    for (std::size_t i = 0; i < res.keys.size(); ++i) {
        const MatrixJob *j = byKey[res.keys[i]];
        json::Value v;
        if (!j || !json::parse(res.payloads[i], v))
            continue;
        if (j->mode == "full-power")
            apps[j->workload].fp = v;
        else if (j->mode == "powerchop")
            apps[j->workload].pc = v;
    }
    double slow = 0, power = 0, energy = 0;
    for (const auto &[name, p] : apps) {
        slow += p.pc.getDouble("cycles") / p.fp.getDouble("cycles") - 1;
        power += 1 - p.pc.getDouble("avg_power_w") /
                         p.fp.getDouble("avg_power_w");
        energy += 1 - p.pc.getDouble("total_energy_j") /
                          p.fp.getDouble("total_energy_j");
    }
    const double n = apps.empty() ? 1.0 : static_cast<double>(apps.size());
    std::printf(
        "info: PowerChop suite means over %zu models at %llu insns/job: "
        "slowdown %.2f%% (paper ~2.2%%), power reduction %.1f%% (paper "
        "9%% server / 19%% mobile), energy reduction %.1f%% (paper 9%%). "
        "Information only; the model is not validated against "
        "hardware.\n",
        apps.size(), static_cast<unsigned long long>(kSweepInsns),
        100 * slow / n, 100 * power / n, 100 * energy / n);
}

/** Greedy lane assignment so overlapping spans land on distinct rows. */
std::vector<int>
assignLanes(const std::vector<std::pair<double, double>> &iv)
{
    std::vector<std::size_t> order(iv.size());
    for (std::size_t i = 0; i < iv.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return iv[a].first < iv[b].first;
              });
    std::vector<double> laneEnd;
    std::vector<int> lane(iv.size());
    for (std::size_t i : order) {
        std::size_t l = 0;
        while (l < laneEnd.size() && laneEnd[l] > iv[i].first)
            ++l;
        if (l == laneEnd.size())
            laneEnd.push_back(0);
        laneEnd[l] = iv[i].second;
        lane[i] = static_cast<int>(l) + 1;
    }
    return lane;
}

/** Record job spans under `parent` plus a batch span covering them. */
void
addJobSpans(Context &ctx, std::int64_t parent, const std::string &batchName,
            const std::vector<std::pair<double, double>> &iv)
{
    if (!ctx.tracer.enabled() || iv.empty())
        return;
    double lo = iv.front().first, hi = iv.front().second;
    for (const auto &[a, b] : iv) {
        lo = std::min(lo, a);
        hi = std::max(hi, b);
    }
    const std::int64_t batch = ctx.tracer.add(batchName, parent, lo, hi);
    const std::vector<int> lanes = assignLanes(iv);
    for (std::size_t i = 0; i < iv.size(); ++i) {
        ctx.tracer.add("job", batch, iv[i].first, iv[i].second,
                       static_cast<std::int64_t>(i), lanes[i]);
    }
}

/** Spans that hold parallel job or request spans. */
bool
isPool(const std::string &name)
{
    return name == "runner.batch" || name == "shard.workers" ||
           name == "clients";
}

/**
 * Blocking-path coverage of a traced repetition. Unattributed time is
 * the root's own self time (harness glue between layer calls) plus,
 * inside each pool span (runner batch, shard workers, client pool),
 * the stretches where no job or request is in flight on any lane. The
 * run fails when it exceeds kSpanTolerance of the repetition.
 */
void
checkSpanCoverage(Context &ctx, std::int64_t root)
{
    if (!ctx.tracer.enabled() || root < 0)
        return;
    const std::vector<pb::Span> spans = ctx.tracer.spans();
    const double dur = pb::spanDuration(spans, root);
    double gap = pb::selfTime(spans, root);
    for (const pb::Span &sp : spans) {
        if (!isPool(sp.name))
            continue;
        std::int64_t up = sp.parent;
        while (up >= 0 && up != root)
            up = spans[static_cast<std::size_t>(up)].parent;
        if (up == root)
            gap += pb::selfTime(spans, sp.id);
    }
    const double unattributed = dur > 0 ? gap / dur : 1;
    ctx.result.set("trace.unattributed_share", unattributed);
    if (unattributed > kSpanTolerance)
        ctx.result.fail("more than 5% of the traced repetition is "
                        "outside every layer span or idle in a pool");
}

// ---------------------------------------------------------------- sweep

struct RepOut
{
    double setup = 0;
    double wall = 0;
    double callWall = 0; ///< The runCampaign / runShardedCampaign call.
    double insns = 0;
    std::vector<double> jobMs;
    CampaignResult campaign;
    std::int64_t root = -1;
};

/** One cold in-process sweep on a fresh directory. */
RepOut
sweepRep(Context &ctx, const std::vector<MatrixJob> &matrix,
         std::uint64_t seed, RunnerReport *runnerOut)
{
    pb::Tracer &tr = ctx.tracer;
    const std::string dir = ctx.freshDir("sweep");
    RepOut o;
    o.root = tr.open("sweep.rep", -1);
    const double t0 = now();
    const std::int64_t setup = tr.open("setup", o.root);
    std::int64_t s = tr.open("runner.start", setup);
    SimJobRunner runner(ctx.nproc);
    tr.close(s);
    s = tr.open("matrix", setup);
    const std::vector<SimJob> jobs = permutedJobs(matrix, seed);
    tr.close(s);
    tr.close(setup);
    const double t1 = now();
    const std::int64_t camp = tr.open("campaign.runCampaign", o.root);
    CampaignOptions copts;
    copts.interruptFlag = &ctx.noInterrupt;
    o.campaign = runCampaign(runner, jobs, dir, copts);
    tr.close(camp);
    const double t2 = now();
    tr.close(o.root);
    if (runnerOut)
        *runnerOut = runner.report();

    // Job latency from the campaign's own flight events (job-start on
    // the worker thread, job-finish once the record is durable).
    std::map<std::uint64_t, double> started;
    std::vector<std::pair<double, double>> iv;
    double firstStart = t2;
    for (const FlightEvent &e : FlightRecorder::global().snapshot()) {
        if (e.monoSeconds < t1 || e.monoSeconds > t2)
            continue;
        if (e.type == FlightEventType::JobStart) {
            started[e.key] = e.monoSeconds;
            firstStart = std::min(firstStart, e.monoSeconds);
        } else if (e.type == FlightEventType::JobFinish &&
                   started.count(e.key)) {
            iv.emplace_back(started[e.key], e.monoSeconds);
        }
    }
    for (const auto &[a, b] : iv)
        o.jobMs.push_back((b - a) * 1e3);
    if (iv.size() != jobs.size())
        ctx.result.fail("flight recorder lost job events");
    // Set-up runs until the campaign starts its first job: runner
    // start, matrix, and runCampaign's own keys, directories and
    // journal open.
    o.setup = firstStart - t0;
    o.wall = t2 - firstStart;
    o.callWall = t2 - t1;
    addJobSpans(ctx, camp, "runner.batch", iv);

    for (double n : countPayloads(o.campaign.payloads).insns)
        o.insns += n;
    std::size_t bad = 0;
    for (const JobOutcome &out : o.campaign.outcomes)
        bad += out.status != JobStatus::Ok;
    ctx.result.tally(jobs.size(), bad);
    checkDigest(ctx, "sweep", o.campaign.keys, o.campaign.payloads);
    fs::remove_all(dir);
    return o;
}

/** Watches shard journals: the time each is created (a worker opens
 *  its journal once it has rebuilt its jobs, right before running
 *  them) and one completion time per new line. inotify wakes it per
 *  event, so it takes no CPU from the workers between records. */
class JournalWatcher
{
  public:
    explicit JournalWatcher(std::string dir)
        : dir_(std::move(dir)), fd_(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC))
    {
        if (fd_ < 0 ||
            ::inotify_add_watch(fd_, dir_.c_str(), IN_CREATE | IN_MODIFY) < 0) {
            if (fd_ >= 0)
                ::close(fd_);
            throw std::runtime_error("cannot watch " + dir_);
        }
        thread_ = std::thread([this] { loop(); });
    }
    ~JournalWatcher()
    {
        stop();
        ::close(fd_);
    }
    JournalWatcher(const JournalWatcher &) = delete;
    JournalWatcher &operator=(const JournalWatcher &) = delete;

    void stop()
    {
        if (!thread_.joinable())
            return;
        stop_.store(true);
        thread_.join();
        // Lines whose events were still queued.
        for (const auto &ent : fs::directory_iterator(dir_))
            scan(ent.path().filename().string());
    }

    /** Completion times per journal file name. */
    const std::map<std::string, std::vector<double>> &completions() const
    {
        return done_;
    }

    /** Creation time per journal file name. */
    const std::map<std::string, double> &creations() const
    {
        return created_;
    }

  private:
    void loop()
    {
        alignas(inotify_event) char buf[4096];
        pollfd pfd{fd_, POLLIN, 0};
        while (!stop_.load()) {
            if (::poll(&pfd, 1, 20) <= 0)
                continue;
            const ssize_t n = ::read(fd_, buf, sizeof(buf));
            for (ssize_t off = 0; off < n;) {
                const auto *ev = reinterpret_cast<const inotify_event *>(buf + off);
                if (ev->len > 0 && (ev->mask & IN_CREATE) &&
                    isJournal(ev->name))
                    created_.emplace(ev->name, now());
                if (ev->len > 0)
                    scan(ev->name);
                off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
            }
        }
    }

    static bool isJournal(const std::string &name)
    {
        return name.rfind("shard-", 0) == 0 && name.size() > 6 &&
               name.substr(name.size() - 6) == ".jsonl";
    }

    void scan(const std::string &name)
    {
        if (!isJournal(name))
            return;
        const fs::path path = fs::path(dir_) / name;
        std::error_code ec;
        const auto size = fs::file_size(path, ec);
        if (ec || size <= offset_[name])
            return;
        std::ifstream in(path, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(offset_[name]));
        std::string chunk(size - offset_[name], '\0');
        in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        const std::size_t last = chunk.rfind('\n');
        if (last == std::string::npos)
            return;
        const double t = now();
        for (std::size_t i = 0; i <= last; ++i) {
            if (chunk[i] == '\n')
                done_[name].push_back(t);
        }
        offset_[name] += last + 1;
    }

    std::string dir_;
    int fd_;
    std::atomic<bool> stop_{false};
    std::map<std::string, std::uintmax_t> offset_;
    std::map<std::string, std::vector<double>> done_;
    std::map<std::string, double> created_;
    std::thread thread_;
};

double
childrenCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
           ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
}

double
peakRssMb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return ru.ru_maxrss / 1024.0;
}

/** One cold sharded sweep on a fresh directory. Set-up runs until
 *  the last primary worker opens its shard journal: supervisor start,
 *  fork and exec, and each worker's rebuild of its jobs. */
RepOut
shardedRep(Context &ctx, const std::vector<MatrixJob> &matrix,
           std::uint64_t seed, ShardSupervisorResult *supOut,
           std::size_t *journalLines)
{
    pb::Tracer &tr = ctx.tracer;
    const std::string dir = ctx.freshDir("sharded");
    makeCampaignDirs(dir);
    ShardSupervisorOptions sopts;
    sopts.shards = ctx.nproc;
    sopts.exePath = ctx.cli;
    sopts.interruptFlag = &ctx.noInterrupt;
    std::string names;
    for (const WorkloadSpec &w : allWorkloads())
        names += (names.empty() ? "" : ",") + w.name;
    std::string modes;
    for (SimMode m : kModes)
        modes += (modes.empty() ? "" : ",") + std::string(simModeName(m));
    // The workers rebuild every model on both machines; the supervisor
    // only assigns keys of the native-machine matrix.
    sopts.workerArgs = {"--workloads", names, "--modes", modes, "--insns",
                        std::to_string(kSweepInsns)};
    JournalWatcher watcher(dir);

    RepOut o;
    o.root = tr.open("sweep_sharded.rep", -1);
    const double t0 = now();
    const std::int64_t setup = tr.open("setup", o.root);
    const std::int64_t s = tr.open("matrix", setup);
    const std::vector<SimJob> jobs = permutedJobs(matrix, seed);
    tr.close(s);
    tr.close(setup);
    const double t1 = now();
    const std::int64_t camp = tr.open("shard.runShardedCampaign", o.root);
    const ShardSupervisorResult sup = runShardedCampaign(jobs, dir, sopts);
    tr.close(camp);
    const double t2 = now();
    tr.close(o.root);
    watcher.stop();

    // A worker runs one job at a time from the moment it opens its
    // journal, so the gaps between the journal's creation and each of
    // its records are its job latencies.
    const auto &created = watcher.creations();
    std::vector<std::pair<double, double>> iv;
    for (const auto &[name, times] : watcher.completions()) {
        const auto c = created.find(name);
        if (c == created.end()) {
            ctx.result.fail("shard journal creation not observed");
            continue;
        }
        double prev = c->second;
        for (double t : times) {
            iv.emplace_back(prev, t);
            o.jobMs.push_back((t - prev) * 1e3);
            prev = t;
        }
    }
    double ready = t1;
    std::size_t primaries = 0;
    for (const auto &[name, t] : created) {
        if (name.find('h', 6) == std::string::npos) {
            ready = std::max(ready, t);
            ++primaries;
        }
    }
    if (primaries != std::min<std::size_t>(ctx.nproc, jobs.size()))
        ctx.result.fail("a shard worker never opened its journal");
    tr.add("shard.start", camp, t1, ready);
    addJobSpans(ctx, camp, "shard.workers", iv);
    o.setup = ready - t0;
    o.wall = t2 - ready;
    o.callWall = t2 - t1;
    o.campaign = sup.campaign;

    if (journalLines) {
        *journalLines = 0;
        for (const auto &ent : fs::directory_iterator(dir)) {
            const std::string name = ent.path().filename().string();
            if (name.rfind("shard-", 0) == 0)
                *journalLines += loadJournal(ent.path().string()).lines;
        }
    }
    if (supOut)
        *supOut = sup;
    for (double n : countPayloads(o.campaign.payloads).insns)
        o.insns += n;
    std::size_t bad = 0;
    for (const JobOutcome &out : o.campaign.outcomes)
        bad += out.status != JobStatus::Ok;
    ctx.result.tally(jobs.size(), bad);
    checkDigest(ctx, "sweep", o.campaign.keys, o.campaign.payloads);
    fs::remove_all(dir);
    return o;
}

/** One measured repetition (a sweep) or epoch (a serving session). */
struct Measure
{
    double setup = 0;
    double wall = 0;
    double ops = 0;   ///< Jobs or requests completed.
    double insns = 0; ///< Guest instructions in the results delivered.
    std::vector<double> latMs;
};

/** Fold measures into the end-to-end metrics: medians across measures.
 *  The run's highest tail with at least 10 samples beyond it is
 *  printed with its sample count but not gated: on a shared 4-vCPU VM
 *  the serve_cold p99 spread about 24% across seeds. */
void
reportMeasures(Context &ctx, const std::vector<Measure> &ms, double peakMb)
{
    std::vector<double> setup, mips, rps, p50, p90, lat;
    for (const Measure &m : ms) {
        setup.push_back(m.setup);
        mips.push_back(m.insns / m.wall / 1e6);
        rps.push_back(m.ops / m.wall);
        p50.push_back(pb::median(m.latMs));
        const pb::Tail t = pb::tailQuantile(m.latMs, 90);
        if (t.pct < 90)
            ctx.result.fail("too few latency samples for p90");
        p90.push_back(t.value);
        lat.insert(lat.end(), m.latMs.begin(), m.latMs.end());
        std::fprintf(stderr,
                     "perfbench: setup %.6f s, wall %.4f s, %.0f ops, "
                     "%.2f MIPS, p50 %.4f ms, p90 %.4f ms\n",
                     m.setup, m.wall, m.ops, mips.back(), p50.back(),
                     t.value);
    }
    Result &res = ctx.result;
    res.set("setup_s", pb::median(setup));
    res.set("mips", pb::median(mips));
    res.set("rps", pb::median(rps));
    res.set("p50_ms", pb::median(p50));
    res.set("p90_ms", pb::median(p90));
    res.set("peak_rss_mb", peakMb);
    const pb::Tail tail = pb::tailQuantile(lat, 99.9);
    std::printf("info: %zu measured repetitions, %zu latency samples; "
                "p%g %.4f ms with %zu samples beyond\n",
                ms.size(), lat.size(), tail.pct, tail.value, tail.beyond);
}

/** Repeat `once` until the time budget and the tail sample floor are
 *  both met (or three times the budget has passed). */
std::vector<Measure>
measureUntilDone(Context &ctx, const std::function<Measure(unsigned)> &once)
{
    std::vector<Measure> ms;
    std::size_t samples = 0;
    const double t0 = now();
    for (unsigned i = 0;; ++i) {
        ms.push_back(once(i));
        samples += ms.back().latMs.size();
        const double el = now() - t0;
        if ((el >= ctx.seconds && samples >= kTailSamples && ms.size() >= 3) ||
            el >= 3 * ctx.seconds)
            break;
    }
    return ms;
}

Measure
measureOf(const RepOut &r)
{
    return {r.setup, r.wall, static_cast<double>(r.campaign.keys.size()),
            r.insns, r.jobMs};
}

/**
 * Alternate untraced and traced runs three times, record the tracing
 * overhead from their median throughputs, and return the last traced
 * run (its spans, with the other traced runs', stay in the tracer).
 */
template <class Out>
Out
withOverhead(Context &ctx, const std::function<Out(unsigned)> &run,
             const std::function<double(const Out &)> &throughput)
{
    std::vector<double> plain, traced;
    Out last;
    for (unsigned i = 0; i < 3; ++i) {
        ctx.tracer.setEnabled(false);
        plain.push_back(throughput(run(i)));
        ctx.tracer.setEnabled(true);
        last = run(i);
        traced.push_back(throughput(last));
    }
    const double base = pb::median(plain);
    ctx.result.set("trace.overhead_pct",
                   100 * (base - pb::median(traced)) / base);
    return last;
}

void
runSweep(Context &ctx)
{
    const std::vector<MatrixJob> matrix = buildMatrix(kSweepInsns, false);
    if (!ctx.traced) {
        CampaignResult first;
        const auto ms = measureUntilDone(ctx, [&](unsigned i) {
            const RepOut r = sweepRep(ctx, matrix, ctx.seed * 1000 + i, nullptr);
            if (i == 0)
                first = r.campaign;
            return measureOf(r);
        });
        reportMeasures(ctx, ms, peakRssMb(RUSAGE_SELF));
        printPaperComparison(matrix, first);
        return;
    }

    pb::Tracer &tr = ctx.tracer;
    Result &res = ctx.result;
    RunnerReport runRep;
    const RepOut traced = withOverhead<RepOut>(
        ctx,
        [&](unsigned i) {
            return sweepRep(ctx, matrix, ctx.seed * 1000 + i, &runRep);
        },
        [](const RepOut &r) { return r.insns / r.wall; });
    checkSpanCoverage(ctx, traced.root);
    printPaperComparison(matrix, traced.campaign);

    res.set("runner.wall_s", runRep.wallSeconds);
    res.set("runner.busy_s", runRep.busySeconds);
    res.set("runner.speedup", runRep.speedup());
    res.set("bt.tcache_hits", static_cast<double>(runRep.translationCacheHits));
    res.set("bt.tcache_misses",
            static_cast<double>(runRep.translationCacheMisses));
    res.set("campaign.self_s", traced.callWall - runRep.wallSeconds);
    res.set("campaign.report_ms",
            1e3 * medianTime(9, [&] {
                g_sink.fetch_add(traced.campaign.reportJson().size(),
                                 std::memory_order_relaxed);
            }));

    // Runner layer: the same matrix through runRobust with per-job
    // hooks on the worker thread.
    const std::int64_t root = tr.open("runner.hooks", -1);
    const std::vector<SimJob> jobs = permutedJobs(matrix, ctx.seed * 1000);
    const std::size_t n = jobs.size();
    std::vector<double> w0(n), w1(n), c0(n), c1(n);
    std::vector<std::thread::id> worker(n);
    RobustRunOptions ro;
    ro.onStart = [&](std::size_t i) {
        worker[i] = std::this_thread::get_id();
        c0[i] = pb::threadCpuSeconds();
        w0[i] = now();
    };
    ro.onComplete = [&](std::size_t i, const SimResult &, const JobOutcome &) {
        w1[i] = now();
        c1[i] = pb::threadCpuSeconds();
    };
    SimJobRunner hooked(ctx.nproc);
    const double b0 = now();
    const std::int64_t rr = tr.open("runner.runRobust", root);
    const RobustBatchResult batch = hooked.runRobust(jobs, ro);
    tr.close(rr);
    const double b1 = now();
    tr.close(root);
    res.tally(n, n - batch.okCount());
    double queue = 0, cpu = 0, wall = 0, lastDispatch = 0;
    std::map<std::thread::id, double> lastEnd;
    std::vector<std::pair<double, double>> iv;
    for (std::size_t i = 0; i < n; ++i) {
        queue += w0[i] - b0;
        cpu += c1[i] - c0[i];
        wall += w1[i] - w0[i];
        lastDispatch = std::max(lastDispatch, w0[i]);
        lastEnd[worker[i]] = std::max(lastEnd[worker[i]], w1[i]);
        iv.emplace_back(w0[i], w1[i]);
    }
    addJobSpans(ctx, rr, "runner.jobs", iv);
    double tailIdle = 0;
    for (const auto &[id, end] : lastEnd)
        tailIdle += b1 - std::max(end, lastDispatch);
    tailIdle += (ctx.nproc - std::min<std::size_t>(ctx.nproc, lastEnd.size())) *
                (b1 - lastDispatch);
    res.set("runner.queue_wait_s", queue);
    res.set("runner.offcpu_share", wall > 0 ? 1 - cpu / wall : 0);
    res.set("runner.tail_idle_s", tailIdle);

    // Solo pass: per-mode cost and in-batch inflation.
    const Solo solo = soloPass(ctx, matrix);
    std::vector<double> inflation;
    for (std::size_t i = 0; i < n; ++i) {
        const double alone = solo.seconds.at(campaignJobKey(jobs[i]));
        if (alone > 0)
            inflation.push_back((w1[i] - w0[i]) / alone);
    }
    res.set("runner.inflation", pb::median(inflation));

    journalProbe(ctx, traced.campaign.keys, traced.campaign.payloads);
    setCounts(res, countPayloads(traced.campaign.payloads));
}

void
runSweepSharded(Context &ctx)
{
    const std::vector<MatrixJob> matrix = buildMatrix(kSweepInsns, false);
    // Workers run single-threaded; the harness keeps its own count.
    setenv("POWERCHOP_JOBS", "1", 1);
    if (!ctx.traced) {
        const auto ms = measureUntilDone(ctx, [&](unsigned i) {
            return measureOf(shardedRep(ctx, matrix, ctx.seed * 1000 + i,
                                        nullptr, nullptr));
        });
        reportMeasures(ctx, ms, peakRssMb(RUSAGE_CHILDREN));
        return;
    }

    Result &res = ctx.result;
    ShardSupervisorResult sup;
    std::size_t lines = 0;
    double cpu = 0;
    const RepOut traced = withOverhead<RepOut>(
        ctx,
        [&](unsigned i) {
            const double cpu0 = childrenCpuSeconds();
            RepOut r = shardedRep(ctx, matrix, ctx.seed * 1000 + i, &sup,
                                  &lines);
            cpu = childrenCpuSeconds() - cpu0;
            return r;
        },
        [](const RepOut &r) { return r.insns / r.wall; });
    checkSpanCoverage(ctx, traced.root);
    res.set("shard.wall_s", sup.wallSeconds);
    res.set("shard.children_cpu_s", cpu);
    res.set("shard.speedup", sup.wallSeconds > 0 ? cpu / sup.wallSeconds : 0);
    res.set("shard.restarts", static_cast<double>(sup.restarts));
    res.set("shard.redispatches", static_cast<double>(sup.redispatches));
    res.set("shard.useful_ratio",
            lines ? static_cast<double>(matrix.size()) / lines : 0);
    soloPass(ctx, matrix);
    setCounts(res, countPayloads(traced.campaign.payloads));
}

// ---------------------------------------------------------------- serve

/** A `powerchop serve` daemon owned by the harness. It is stopped by
 *  stop() or the destructor on every exit path (and the child gets
 *  SIGTERM if the harness dies first). */
class Daemon
{
  public:
    Daemon(const std::string &cli, const std::string &dir)
        : cli_(cli), dir_(dir), sock_(dir + "/d.sock")
    {
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Exec the daemon and wait for its first answered request.
     *  @return seconds from exec to that answer. */
    double start()
    {
        makeCampaignDirs(dir_);
        SpawnOptions so;
        so.argv = {cli_,   "serve",       dir_, "--socket", sock_,
                   "--cache-mb", "64", "--sim-queue", "64"};
        so.pipeStdin = false;
        const double t0 = now();
        proc_.spawn(so);
        while (now() - t0 < 60) {
            if (!proc_.poll().running())
                throw std::runtime_error("powerchop serve exited early");
            ServeClient c;
            if (c.connectUnix(sock_) && c.stats().served())
                return now() - t0;
            ::usleep(200);
        }
        throw std::runtime_error("powerchop serve never answered");
    }

    const std::string &socket() const { return sock_; }

    /** The daemon's STATS JSON. */
    json::Value stats() const
    {
        ServeClient c;
        json::Value v;
        if (c.connectUnix(sock_)) {
            const ServeReply r = c.stats();
            if (r.served())
                json::parse(r.payload, v);
        }
        return v;
    }

    double peakRssMb() const { return pb::processPeakRssMb(proc_.pid()); }

    void stop()
    {
        if (proc_.pid() <= 0 || !proc_.poll().running())
            return;
        proc_.sendSignal(SIGTERM);
        if (proc_.wait(20).running())
            proc_.killHard();
    }

  private:
    std::string cli_;
    std::string dir_;
    std::string sock_;
    mutable Subprocess proc_;
};

/** One request a client sends and what must come back. */
struct Req
{
    bool isGet = false;
    std::uint64_t key = 0;            ///< GET target.
    const std::string *spec = nullptr; ///< SIM spec JSON.
    const std::string *expected = nullptr;
    double insns = 0;      ///< Guest instructions in the answer.
    std::size_t index = 0; ///< Key index (single-job SIMs).
};

/** What one client thread observed. */
struct ClientOut
{
    pb::ClassLatencies lat;
    std::size_t attempted = 0, failed = 0;
    double insns = 0;
    double end = 0;
    std::vector<std::pair<std::size_t, double>> misses; ///< index, ms
    std::vector<pb::Span> spans;
};

void
clientLoop(const std::string &sock, int lane, bool traced,
           const std::function<bool(Req &)> &next, ClientOut &out)
{
    ServeClient c;
    std::string err;
    if (!c.connectUnix(sock, &err)) {
        out.attempted = out.failed = 1;
        out.lat.add(pb::RequestClass::Transport, 0);
        out.end = now();
        return;
    }
    Req r;
    while (next(r)) {
        const double t0 = now();
        const ServeReply reply = r.isGet ? c.get(r.key) : c.sim(*r.spec);
        const double t1 = now();
        const pb::RequestClass cls =
            pb::classifyReply(r.isGet, reply.status, reply.ioFailed);
        const double ms = (t1 - t0) * 1e3;
        out.lat.add(cls, ms);
        ++out.attempted;
        if (reply.served() && reply.payload == *r.expected)
            out.insns += r.insns;
        else
            ++out.failed;
        if (cls == pb::RequestClass::SimMiss)
            out.misses.emplace_back(r.index, ms);
        if (traced) {
            pb::Span s;
            s.name = pb::requestClassName(cls);
            s.start = t0;
            s.end = t1;
            s.rid = static_cast<std::int64_t>(out.attempted);
            s.lane = lane;
            out.spans.push_back(std::move(s));
        }
        if (reply.ioFailed && !c.reconnect())
            break;
    }
    out.end = now();
}

/** One serving epoch's outcome. */
struct EpochOut
{
    double setup = 0;
    double wall = 0;
    double peakMb = 0;
    ClientOut all;
    json::Value stats;
    std::int64_t root = -1;
};

/** Start a daemon, drive `clients` closed-loop clients, stop it. */
EpochOut
serveEpoch(Context &ctx, const std::string &dir, unsigned clients,
           const std::function<std::function<bool(Req &)>(unsigned)> &gen)
{
    pb::Tracer &tr = ctx.tracer;
    EpochOut o;
    Daemon d(ctx.cli, dir);
    o.root = tr.open("serve.epoch", -1);
    const double ts = now();
    o.setup = d.start();
    tr.add("daemon.start", o.root, ts, now());
    const std::int64_t load = tr.open("clients", o.root);
    std::vector<ClientOut> outs(clients);
    std::vector<std::thread> pool;
    const double t0 = now();
    for (unsigned c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
            clientLoop(d.socket(), static_cast<int>(c) + 1, tr.enabled(),
                       gen(c), outs[c]);
        });
    }
    for (auto &t : pool)
        t.join();
    tr.close(load);
    double end = t0;
    for (ClientOut &co : outs) {
        end = std::max(end, co.end);
        o.all.lat.merge(co.lat);
        o.all.attempted += co.attempted;
        o.all.failed += co.failed;
        o.all.insns += co.insns;
        o.all.misses.insert(o.all.misses.end(), co.misses.begin(),
                            co.misses.end());
        for (const pb::Span &s : co.spans)
            tr.add(s.name, load, s.start, s.end, s.rid, s.lane);
    }
    o.wall = end - t0;
    const std::int64_t tail = tr.open("daemon.stop", o.root);
    o.stats = d.stats();
    o.peakMb = d.peakRssMb();
    d.stop();
    tr.close(tail);
    tr.close(o.root);
    ctx.result.tally(o.all.attempted, o.all.failed);
    if (o.stats.getUint64("shed_requests") +
            o.stats.getUint64("shed_connections") > 0)
        ctx.result.fail("the daemon shed load");
    return o;
}

/** Reference results of a matrix from an in-process campaign. */
struct Reference
{
    std::vector<MatrixJob> matrix;
    std::vector<std::uint64_t> keys;    ///< Matrix order.
    std::vector<std::string> payloads;  ///< Matrix order.
    std::vector<double> insns;          ///< Matrix order.
    std::string journal;                ///< The campaign's journal.
};

Reference
referenceCampaign(Context &ctx, bool bothMachines, const std::string &which)
{
    Reference ref;
    ref.matrix = buildMatrix(kServeInsns, bothMachines);
    std::vector<SimJob> jobs;
    for (const MatrixJob &j : ref.matrix)
        jobs.push_back(j.job);
    const std::string dir = ctx.freshDir("reference-" + which);
    SimJobRunner runner(ctx.nproc);
    CampaignOptions copts;
    copts.interruptFlag = &ctx.noInterrupt;
    const CampaignResult res = runCampaign(runner, jobs, dir, copts);
    if (!res.complete())
        throw std::runtime_error("reference campaign incomplete");
    checkDigest(ctx, which, res.keys, res.payloads);
    ref.keys = res.keys;
    ref.payloads = res.payloads;
    ref.insns = countPayloads(res.payloads).insns;
    ref.journal = dir + "/journal.jsonl";
    return ref;
}

/** The report a SIM of `idx` (matrix indices, spec order) renders. */
std::string
expectedReport(const Reference &ref, const std::vector<std::size_t> &idx)
{
    CampaignResult r;
    for (std::size_t i : idx) {
        r.keys.push_back(ref.keys[i]);
        r.outcomes.emplace_back();
        r.payloads.push_back(ref.payloads[i]);
    }
    return r.reportJson();
}

void
setClientMetrics(Context &ctx, const ClientOut &all)
{
    using pb::RequestClass;
    Result &res = ctx.result;
    res.set("client.get_hit_us", 1e3 * pb::median(all.lat.of(RequestClass::GetHit)));
    res.set("client.sim_hit_us", 1e3 * pb::median(all.lat.of(RequestClass::SimHit)));
    res.set("client.sim_miss_ms", pb::median(all.lat.of(RequestClass::SimMiss)));
    res.set("client.err", static_cast<double>(all.lat.of(RequestClass::Err).size()));
    res.set("client.busy", static_cast<double>(all.lat.of(RequestClass::Busy).size()));
    res.set("client.samples", static_cast<double>(all.lat.total()));
}

void
setServerMetrics(Context &ctx, const json::Value &stats)
{
    Result &res = ctx.result;
    res.set("result_cache.hit_rate", stats.getDouble("hit_rate"));
    res.set("result_cache.evictions",
            static_cast<double>(stats.getUint64("evictions")));
    res.set("result_cache.bytes", static_cast<double>(stats.getUint64("bytes")));
    res.set("server.sims_executed",
            static_cast<double>(stats.getUint64("simulated_jobs")));
    res.set("server.shed", static_cast<double>(stats.getUint64("shed_requests") +
                                               stats.getUint64("shed_connections")));
}

/** Result-cache and protocol probes, in-process. */
void
cacheProbes(Context &ctx, const Reference &ref,
            const std::vector<std::string> &lines)
{
    Result &res = ctx.result;
    ResultCacheOptions co;
    co.journalPath = ctx.freshDir("cache-probe") + ".jsonl";
    {
        ResultCache cache(co);
        std::vector<double> put;
        for (std::size_t i = 0; i < ref.keys.size(); ++i) {
            const double t0 = now();
            cache.put(ref.keys[i], ref.payloads[i]);
            put.push_back((now() - t0) * 1e6);
        }
        res.set("result_cache.put_us", pb::median(put));
        std::string out;
        const double perPass = medianTime(9, [&] {
            for (std::uint64_t k : ref.keys)
                cache.get(k, &out);
        });
        res.set("result_cache.get_ns", perPass / ref.keys.size() * 1e9);
    }
    fs::remove(co.journalPath);
    const double perParse = medianTime(9, [&] {
        std::size_t sink = 0;
        for (const std::string &l : lines)
            sink += parseRequestLine(l).spec.size();
        g_sink.fetch_add(sink, std::memory_order_relaxed);
    });
    res.set("protocol.parse_ns", perParse / lines.size() * 1e9);
}

Measure
measureOf(const EpochOut &e)
{
    return {e.setup, e.wall, static_cast<double>(e.all.lat.total()),
            e.all.insns, e.all.lat.all()};
}

double
requestsPerSecond(const EpochOut &e)
{
    return e.all.lat.total() / e.wall;
}

/** Untraced serving: epochs until the budget is spent, peak RSS of
 *  the largest daemon. */
void
runEpochs(Context &ctx, const std::function<EpochOut(unsigned)> &epoch)
{
    double peak = 0;
    const auto ms = measureUntilDone(ctx, [&](unsigned i) {
        const EpochOut e = epoch(i);
        peak = std::max(peak, e.peakMb);
        return measureOf(e);
    });
    reportMeasures(ctx, ms, peak);
}

void
runServeCold(Context &ctx)
{
    const Reference ref = referenceCampaign(ctx, false, "serve_native");
    const std::size_t n = ref.keys.size();
    std::vector<std::string> specs(n), reports(n), lines(n);
    for (std::size_t i = 0; i < n; ++i) {
        const MatrixJob &j = ref.matrix[i];
        specs[i] = formatSimSpec({j.workload}, {j.machine}, {j.mode},
                                 kServeInsns, 0);
        reports[i] = expectedReport(ref, {i});
        lines[i] = "SIM " + specs[i];
    }
    const unsigned clients = ctx.nproc;
    auto epoch = [&](std::uint64_t seed) {
        const std::vector<std::size_t> draws =
            pb::drawKeys(seed, n, kRepeatShare, clients - 1);
        auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
        return serveEpoch(ctx, ctx.freshDir("serve-cold"), clients,
                          [&, draws, cursor](unsigned) {
                              return [&, draws, cursor](Req &r) {
                                  const std::size_t slot = (*cursor)++;
                                  if (slot >= draws.size())
                                      return false;
                                  const std::size_t k = draws[slot];
                                  r.isGet = false;
                                  r.spec = &specs[k];
                                  r.expected = &reports[k];
                                  r.insns = ref.insns[k];
                                  r.index = k;
                                  return true;
                              };
                          });
    };

    if (!ctx.traced) {
        runEpochs(ctx, [&](unsigned i) { return epoch(ctx.seed * 1000 + i); });
        return;
    }

    Result &res = ctx.result;
    const EpochOut traced = withOverhead<EpochOut>(
        ctx, [&](unsigned i) { return epoch(ctx.seed * 1000 + i); },
        requestsPerSecond);
    checkSpanCoverage(ctx, traced.root);
    setClientMetrics(ctx, traced.all);
    setServerMetrics(ctx, traced.stats);
    std::set<std::size_t> distinct;
    for (const auto &[k, ms] : traced.all.misses)
        distinct.insert(k);
    res.set("server.dup_sim_ratio",
            distinct.empty() ? 0
                             : traced.stats.getDouble("simulated_jobs") /
                                   distinct.size());
    const Solo solo = soloPass(ctx, ref.matrix);
    std::vector<double> wait;
    for (const auto &[k, ms] : traced.all.misses)
        wait.push_back(ms - 1e3 * solo.seconds.at(ref.keys[k]));
    res.set("server.miss_wait_ms", pb::median(wait));
    journalProbe(ctx, ref.keys, ref.payloads);
    cacheProbes(ctx, ref, lines);
    setCounts(res, countPayloads(ref.payloads));
}

void
runServeHot(Context &ctx)
{
    const Reference ref = referenceCampaign(ctx, true, "serve_space");
    const std::size_t n = ref.keys.size();
    const std::size_t perModel = 2 * std::size(kModes);
    const std::size_t models = n / perModel;
    // One multi-job SIM per model: both machines x every mode, in the
    // server's expansion order (= matrix order).
    std::vector<std::string> specs(models), reports(models), lines;
    std::vector<double> simInsns(models);
    std::vector<std::string> modeNames;
    for (SimMode m : kModes)
        modeNames.push_back(simModeName(m));
    for (std::size_t w = 0; w < models; ++w) {
        std::vector<std::size_t> idx;
        for (std::size_t j = 0; j < perModel; ++j) {
            idx.push_back(w * perModel + j);
            simInsns[w] += ref.insns[w * perModel + j];
        }
        specs[w] = formatSimSpec({ref.matrix[w * perModel].workload},
                                 {"server", "mobile"}, modeNames,
                                 kServeInsns, 0);
        reports[w] = expectedReport(ref, idx);
        lines.push_back("SIM " + specs[w]);
    }
    for (std::uint64_t k : ref.keys) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "GET %016" PRIx64, k);
        lines.push_back(buf);
    }
    // As many clients as CPUs. A client blocks while its request is
    // served, so the daemon still gets a core per connection; fewer
    // clients leave vCPUs idle, and waking them cost more steal and
    // throughput on a 4-vCPU VM (2, 3, 4 clients: about 9K, 20K, 27K
    // requests per second).
    const unsigned clients = ctx.nproc;
    auto epoch = [&](std::uint64_t seed, double seconds) {
        const std::string dir = ctx.freshDir("serve-hot");
        makeCampaignDirs(dir);
        fs::copy_file(ref.journal, dir + "/cache.jsonl");
        return serveEpoch(ctx, dir, clients, [&, seed, seconds](unsigned c) {
            auto rng = std::make_shared<pb::SplitMix64>(seed * 131 + c);
            // The deadline starts after the daemon answered, so the
            // load phase, not the warm start, fills `seconds`.
            auto until = std::make_shared<double>(0);
            auto sent = std::make_shared<std::size_t>(0);
            return [&, rng, until, sent, seconds](Req &r) {
                const double t = now();
                if (*until == 0)
                    *until = t + seconds;
                if (t >= *until)
                    return false;
                // Eight GETs, then one multi-job SIM: a fixed mix keeps
                // p90 inside the SIM class instead of on its edge.
                if ((*sent)++ % 9 == 8) {
                    const std::size_t w = rng->below(models);
                    r.isGet = false;
                    r.spec = &specs[w];
                    r.expected = &reports[w];
                    r.insns = simInsns[w];
                } else {
                    const std::size_t k = rng->below(n);
                    r.isGet = true;
                    r.key = ref.keys[k];
                    r.expected = &ref.payloads[k];
                    r.insns = ref.insns[k];
                }
                return true;
            };
        });
    };

    const double len = ctx.seconds / kHotEpochs;
    if (!ctx.traced) {
        runEpochs(ctx,
                  [&](unsigned i) { return epoch(ctx.seed * 1000 + i, len); });
        return;
    }

    Result &res = ctx.result;
    const EpochOut traced = withOverhead<EpochOut>(
        ctx, [&](unsigned i) { return epoch(ctx.seed * 1000 + i, len); },
        requestsPerSecond);
    checkSpanCoverage(ctx, traced.root);
    setClientMetrics(ctx, traced.all);
    setServerMetrics(ctx, traced.stats);

    // Warm start and journal replay of the same journal, in-process.
    const std::string copy = ctx.freshDir("warm-probe") + ".jsonl";
    res.set("result_cache.warm_start_s", medianTime(3, [&] {
                fs::remove(copy);
                fs::copy_file(ref.journal, copy);
                ResultCacheOptions co;
                co.journalPath = copy;
                ResultCache cache(co);
                if (cache.warmStarted() != n)
                    res.fail("warm start restored the wrong entry count");
            }));
    fs::remove(copy);
    journalProbe(ctx, ref.keys, ref.payloads);
    res.set("journal.replay_s",
            medianTime(3, [&] { (void)loadJournal(ref.journal); }));
    CampaignResult sample;
    for (std::size_t j = 0; j < perModel; ++j) {
        sample.keys.push_back(ref.keys[j]);
        sample.outcomes.emplace_back();
        sample.payloads.push_back(ref.payloads[j]);
    }
    res.set("campaign.report_ms",
            1e3 * medianTime(101, [&] {
                g_sink.fetch_add(sample.reportJson().size(),
                                 std::memory_order_relaxed);
            }));
    cacheProbes(ctx, ref, lines);
    setCounts(res, countPayloads(ref.payloads));
}

// ---------------------------------------------------------------- main

std::map<std::string, std::string>
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    json::Value v;
    std::map<std::string, std::string> out;
    if (!json::parse(text, v) ||
        v.getUint64("sweep_insns") != kSweepInsns ||
        v.getUint64("serve_insns") != kServeInsns)
        return out; // stale or missing: every digest check fails
    for (const char *k : {"sweep", "serve_native", "serve_space"})
        out[k] = v.getString(k);
    return out;
}

/** Compute the pinned digests from scratch (for expected.json). */
int
printDigests(Context &ctx)
{
    auto digest = [&](InsnCount insns, bool both) {
        std::vector<SimJob> jobs;
        for (const MatrixJob &j : buildMatrix(insns, both))
            jobs.push_back(j.job);
        SimJobRunner runner(ctx.nproc);
        CampaignOptions copts;
        copts.interruptFlag = &ctx.noInterrupt;
        const CampaignResult r =
            runCampaign(runner, jobs, ctx.freshDir("digest"), copts);
        return pb::resultDigest(r.keys, r.payloads);
    };
    std::printf("{\"sweep_insns\": %llu, \"serve_insns\": %llu,\n"
                " \"sweep\": \"%s\",\n \"serve_native\": \"%s\",\n"
                " \"serve_space\": \"%s\"}\n",
                static_cast<unsigned long long>(kSweepInsns),
                static_cast<unsigned long long>(kServeInsns),
                digest(kSweepInsns, false).c_str(),
                digest(kServeInsns, false).c_str(),
                digest(kServeInsns, true).c_str());
    return 0;
}

void
writeProvenance(Context &ctx, double ceiling)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"seconds\":%g,"
        "\"trace\":%d,\"cpu_model\":\"%s\",\"nproc\":%u,"
        "\"commit\":\"%s\",\"build_type\":\"%s\","
        "\"sweep_insns_per_job\":%llu,\"serve_insns_per_job\":%llu,"
        "\"parallel_ceiling\":%.4f}",
        ctx.workload.c_str(), ctx.seed, ctx.seconds, ctx.traced ? 1 : 0,
        json::escape(pb::hostCpuModel()).c_str(), ctx.nproc,
        json::escape(ctx.commit).c_str(), PERFBENCH_BUILD_TYPE,
        static_cast<unsigned long long>(kSweepInsns),
        static_cast<unsigned long long>(kServeInsns), ceiling);
    std::printf("provenance: %s\n", buf);
    std::ofstream("provenance.json") << buf << "\n";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload W --seed N "
                 "--seconds S --trace 0|1 --cli PATH --expected PATH "
                 "[--commit ID] [--out DIR]\n"
                 "       perfbench_harness --print-digests [--out DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    std::string out = ".", expectedPath;
    bool digests = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto need = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            ctx.workload = need();
        else if (a == "--seed")
            ctx.seed = std::strtoull(need().c_str(), nullptr, 10);
        else if (a == "--seconds")
            ctx.seconds = std::strtod(need().c_str(), nullptr);
        else if (a == "--trace")
            ctx.traced = need() == "1";
        else if (a == "--cli")
            ctx.cli = need();
        else if (a == "--expected")
            expectedPath = need();
        else if (a == "--commit")
            ctx.commit = need();
        else if (a == "--out")
            out = need();
        else if (a == "--print-digests")
            digests = true;
        else
            return usage();
    }
    ctx.nproc = pb::hostCpuCount();

    // Everything the run writes lands under `out`: campaign, journal,
    // socket and serve directories, and any runner JSON.
    fs::create_directories(out);
    if (::chdir(out.c_str()) != 0)
        return usage();
    setenv("POWERCHOP_RUNNER_JSON", "runner.json", 1);
    setenv("POWERCHOP_NO_STATUS", "1", 1);
    setenv("POWERCHOP_NO_FLIGHT", "1", 1);
    serveIgnoreSigpipe();
    FlightRecorder::global().enable("flight.jsonl");

    if (digests)
        return printDigests(ctx);
    if (ctx.workload.empty() || ctx.cli.empty() || ctx.seconds <= 0)
        return usage();
    ctx.expected = loadExpected(expectedPath);

    const double ceiling = pb::spinParallelCeiling(ctx.nproc);
    writeProvenance(ctx, ceiling);
    ctx.result.set("host.parallel_ceiling", ceiling);
    const pb::CpuTicks ticks0 = pb::hostCpuTicks();

    try {
        if (ctx.workload == "sweep")
            runSweep(ctx);
        else if (ctx.workload == "sweep_sharded")
            runSweepSharded(ctx);
        else if (ctx.workload == "serve_cold")
            runServeCold(ctx);
        else if (ctx.workload == "serve_hot")
            runServeHot(ctx);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    // Time the hypervisor gave to other guests: the usual cause of a
    // run that reads slower than its neighbours.
    const pb::CpuTicks ticks1 = pb::hostCpuTicks();
    const double steal = ticks1.total > ticks0.total
                             ? (ticks1.steal - ticks0.steal) /
                                   (ticks1.total - ticks0.total)
                             : 0;
    std::printf("info: host steal %.1f%% of CPU time during the run\n",
                100 * steal);
    ctx.result.set("host.steal_share", steal);

    if (ctx.traced) {
        ctx.result.set("trace.spans",
                       static_cast<double>(ctx.tracer.spans().size()));
        if (!ctx.tracer.writeChromeTrace("trace.json"))
            ctx.result.fail("could not write trace.json");
        if (ctx.result.attempted() > 0)
            ctx.result.set("error_rate",
                           static_cast<double>(ctx.result.failed()) /
                               ctx.result.attempted());
    }
    std::printf("%s\n", ctx.result.json(ctx.traced).c_str());
    return 0;
}
