/**
 * @file
 * powerchop — the command-line driver.
 *
 * Subcommands:
 *   list                         List the 29 built-in workload models.
 *   show <workload>              Print a model's spec (spec_io text
 *                                form, usable as a template).
 *   run <workload> [options]     Simulate one workload.
 *   compare <workload> [options] Full-power vs PowerChop vs min-power.
 *   trace <workload> [options]   Simulate and write a Chrome
 *                                trace-event JSON timeline (opens in
 *                                Perfetto / chrome://tracing).
 *   campaign <dir> [options]     Run a durable sweep into <dir>:
 *                                every finished job is journaled
 *                                (write-ahead, fsync'd) before it
 *                                counts, SIGINT/SIGTERM drain
 *                                gracefully, and --resume skips all
 *                                journaled work. Exit 0 = complete,
 *                                3 = interrupted (resumable),
 *                                1 = permanent failures.
 *                                --shards N (at most 256) forks N
 *                                campaign-worker processes
 *                                supervised for crash
 *                                containment (restart with backoff,
 *                                straggler re-dispatch); the merged
 *                                report.json is byte-identical to a
 *                                single-process run.
 *   campaign-worker <dir> ...    Internal: one shard of a sharded
 *                                campaign. Reads assigned content
 *                                keys from stdin, journals to
 *                                --journal, reports done/heartbeat
 *                                lines on stdout.
 *   status <dir> [options]       Read a campaign's live statusboard
 *                                (<dir>/status/*.json): a one-shot
 *                                table by default, --follow to
 *                                redraw on an interval, --json for
 *                                machine output, --prom for a
 *                                Prometheus textfile exposition.
 *                                Exits 2 when <dir> holds no
 *                                snapshots (nothing running there).
 *   serve <dir> [options]        powerchopd: a long-lived daemon
 *                                serving simulation results over a
 *                                Unix/TCP socket from a content-
 *                                keyed LRU cache (misses simulate
 *                                through the campaign machinery;
 *                                the cache journal in <dir> makes
 *                                restarts warm).
 *   client [options]             One framed request against a
 *                                running powerchopd: --get KEY,
 *                                --stats, or matrix flags for a
 *                                SIM whose report is byte-identical
 *                                to a direct campaign's.
 *
 * Campaigns publish the statusboard and a crash flight recorder
 * (<dir>/flight.jsonl) by default; POWERCHOP_NO_STATUS=1 and
 * POWERCHOP_NO_FLIGHT=1 disable them. Both are write-only side
 * channels: report.json and the journals are byte-identical either
 * way.
 *
 * `<workload>` is either a built-in model name or a path to a spec
 * file (containing '/' or ending in .wl).
 *
 * Options:
 *   --machine server|mobile   Design point (default: by suite).
 *   --mode MODE               full-power | powerchop | min-power |
 *                             timeout-vpu | drowsy-mlc.
 *   --insns N                 Instruction budget (default 10000000).
 *   --timeout N               Timeout period in cycles (timeout-vpu).
 *   --save PATH               Write the workload spec to PATH.
 *   --trace PATH              Also write a trace (run/compare).
 *   --out PATH                Trace output path (trace; default
 *                             <workload>.trace.json).
 *   --metrics-out PATH        Write the per-window metrics CSV
 *                             (PowerChop mode; .jsonl writes JSONL).
 *
 * Unknown subcommands and options print usage and exit 2. --version
 * prints the release and exits 0.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <unistd.h>

#include "powerchop/powerchop.hh"
#include "workload/spec_io.hh"

#ifndef POWERCHOP_VERSION
#define POWERCHOP_VERSION "unknown"
#endif

using namespace powerchop;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: powerchop <command> [args]\n"
        "  list\n"
        "  show <workload>\n"
        "  run <workload> [--machine server|mobile] [--mode MODE]\n"
        "      [--insns N] [--timeout N] [--save PATH] [--json]\n"
        "      [--trace PATH] [--metrics-out PATH]\n"
        "  compare <workload> [--machine server|mobile] [--insns N]\n"
        "  trace <workload> [--out PATH] [--mode MODE] [--insns N]\n"
        "  verify [--insns N] [--workloads a,b,c] [--machine M]\n"
        "      [--mode MODE] [--seeds s1,s2] [--goldens DIR]\n"
        "      [--update-goldens] [--tol T]\n"
        "  campaign <dir> [--workloads a,b,c] [--machine M]\n"
        "      [--modes m1,m2] [--insns N] [--resume] [--inspect]\n"
        "      [--timeout-seconds S] [--drain-seconds S]\n"
        "      [--retries N] [--shards N] [--max-restarts N]\n"
        "      [--heartbeat-seconds S] [--no-redispatch]\n"
        "  campaign-worker <dir> --journal PATH [matrix options]\n"
        "      (internal: one shard of `campaign --shards`; reads\n"
        "      assigned content keys from stdin, one 16-hex line\n"
        "      each, and reports done/heartbeat lines on stdout)\n"
        "  status <dir> [--json | --prom] [--follow] [--interval S]\n"
        "      (exit 2 when <dir> holds no status snapshots)\n"
        "  serve <dir> [--socket PATH | --port N] [--cache-mb N]\n"
        "      [--timeout-seconds S] [--max-conns N] [--sim-queue N]\n"
        "      [--backlog N] [--idle-timeout-seconds S]\n"
        "      [--read-timeout-seconds S] [--write-timeout-seconds S]\n"
        "      [--request-deadline-seconds S] [--drain-seconds S]\n"
        "      [--compact-ratio R] [--compact-min-records N]\n"
        "      (powerchopd: long-lived simulation service with a\n"
        "      content-keyed LRU result cache, journaled to\n"
        "      <dir>/cache.jsonl for warm restarts; default socket\n"
        "      <dir>/powerchopd.sock; overload sheds BUSY; SIGTERM\n"
        "      drains in-flight work and exits 3)\n"
        "  client (--socket PATH | --port N) [--get KEY | --stats |\n"
        "      matrix options] [--retries N] [--timeout-seconds S]\n"
        "      (one request against a running powerchopd; SIM\n"
        "      payloads are byte-identical to a direct campaign's\n"
        "      report.json; retries reconnect with deterministic\n"
        "      exponential backoff)\n"
        "  --version\n"
        "modes: full-power powerchop min-power timeout-vpu drowsy-mlc\n"
        "run/compare/trace accept --audit (invariant-check results)\n"
        "any subcommand accepts --profile (stage wall-clock table,\n"
        "same as POWERCHOP_PROFILE=1)\n");
    return 2;
}

/** Report a bad flag/subcommand: usage text on stderr, exit 2. */
class UsageError : public std::runtime_error
{
  public:
    explicit UsageError(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

WorkloadSpec
resolveWorkload(const std::string &arg)
{
    if (arg.find('/') != std::string::npos ||
        (arg.size() > 3 && arg.substr(arg.size() - 3) == ".wl")) {
        return loadWorkloadSpec(arg);
    }
    return findWorkload(arg);
}

SimMode
parseMode(const std::string &m)
{
    SimMode mode;
    if (!simModeFromName(m, mode))
        fatal("unknown mode '%s'", m.c_str());
    return mode;
}

struct Args
{
    std::string machine;
    SimMode mode = SimMode::PowerChop;
    bool modeSet = false;
    InsnCount insns = 10'000'000;
    bool insnsSet = false;
    double timeout = 0;
    std::string save;
    bool json = false;
    std::string tracePath;
    std::string metricsOut;
    std::string out;
    bool audit = false;

    /** verify-only options. @{ */
    std::string workloads;
    std::string seeds;
    std::string goldens;
    bool updateGoldens = false;
    double tol = 1e-6;
    /** @} */

    /** campaign-only options. @{ */
    std::string modes;
    bool resume = false;
    bool inspect = false;
    double timeoutSeconds = 0;
    double drainSeconds =
        envDouble("POWERCHOP_DRAIN_SECONDS", 0, 3600).value_or(5.0);
    unsigned retries = 0;
    /** @} */

    /** sharded-campaign / campaign-worker options. @{ */
    unsigned shards = 0; ///< 0 = in-process (unsharded) campaign.
    unsigned maxRestarts = 3;
    double heartbeatSeconds = 30.0;
    bool redispatch = true;
    std::string journal; ///< Shard journal (campaign-worker).
    /** @} */

    /** status-only options. @{ */
    bool follow = false;
    bool prom = false;
    double intervalSeconds = 2.0;
    /** @} */

    /** serve / client options. @{ */
    std::string socket;       ///< Unix-domain socket path.
    unsigned port = 0;        ///< TCP port on 127.0.0.1; 0 = Unix.
    double cacheMb = 256;     ///< Result-cache budget (MiB).
    std::string get;          ///< client: GET this hex content key.
    bool statsRequest = false; ///< client: STATS instead of SIM.
    unsigned maxConns = 256;  ///< serve: connection cap (0 = off).
    unsigned simQueue = 16;   ///< serve: SIM admission depth.
    int backlog = 64;         ///< serve: listen(2) backlog.
    double idleTimeoutSeconds = 300;   ///< serve: idle conn reap.
    double readTimeoutSeconds = 30;    ///< serve: mid-frame read.
    double writeTimeoutSeconds = 30;   ///< serve: response write.
    double requestDeadlineSeconds = 0; ///< serve: SIM wall cap.
    double compactRatio = 0.5; ///< serve: journal dead-ratio gate.
    std::uint64_t compactMinRecords = 1024; ///< serve: floor.
    /** @} */

    /** --profile: CLI parity for POWERCHOP_PROFILE=1. */
    bool profile = false;
};

/** Limits for the numeric flags below. @{ */
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxUnsigned =
    std::numeric_limits<unsigned>::max();
constexpr double kMaxDouble = std::numeric_limits<double>::max();
/** One worker process per shard. */
constexpr std::uint64_t kMaxShards = 256;
/** @} */

/** A numeric flag's value: the whole token must be a number in
 *  [lo, hi]; anything else is a UsageError naming the flag. @{ */
std::uint64_t
countFlag(const std::string &flag, const std::string &raw,
          std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v = 0;
    if (const char *why = parseUint64(raw.c_str(), v))
        throw UsageError(csprintf("%s '%s': %s", flag.c_str(),
                                  raw.c_str(), why));
    if (v < lo || v > hi)
        throw UsageError(csprintf(
            "%s %llu: outside [%llu, %llu]", flag.c_str(),
            static_cast<unsigned long long>(v),
            static_cast<unsigned long long>(lo),
            static_cast<unsigned long long>(hi)));
    return v;
}

double
realFlag(const std::string &flag, const std::string &raw, double lo,
         double hi)
{
    double v = 0;
    if (const char *why = parseDouble(raw.c_str(), v))
        throw UsageError(csprintf("%s '%s': %s", flag.c_str(),
                                  raw.c_str(), why));
    if (v < lo || v > hi)
        throw UsageError(csprintf("%s %g: outside [%g, %g]",
                                  flag.c_str(), v, lo, hi));
    return v;
}
/** @} */

Args
parseOptions(const std::vector<std::string> &rest)
{
    Args a;
    for (std::size_t i = 0; i < rest.size(); ++i) {
        const std::string &opt = rest[i];
        auto need = [&]() -> const std::string & {
            if (i + 1 >= rest.size())
                throw UsageError(
                    csprintf("%s requires a value", opt.c_str()));
            return rest[++i];
        };
        auto count = [&](std::uint64_t lo, std::uint64_t hi) {
            return countFlag(opt, need(), lo, hi);
        };
        auto real = [&](double lo, double hi) {
            return realFlag(opt, need(), lo, hi);
        };
        if (opt == "--machine")
            a.machine = need();
        else if (opt == "--mode") {
            a.mode = parseMode(need());
            a.modeSet = true;
        } else if (opt == "--insns") {
            a.insns = count(1, kMaxU64);
            a.insnsSet = true;
        } else if (opt == "--timeout")
            a.timeout = real(0, kMaxDouble);
        else if (opt == "--save")
            a.save = need();
        else if (opt == "--json")
            a.json = true;
        else if (opt == "--trace")
            a.tracePath = need();
        else if (opt == "--metrics-out")
            a.metricsOut = need();
        else if (opt == "--out")
            a.out = need();
        else if (opt == "--audit")
            a.audit = true;
        else if (opt == "--workloads")
            a.workloads = need();
        else if (opt == "--seeds")
            a.seeds = need();
        else if (opt == "--goldens")
            a.goldens = need();
        else if (opt == "--update-goldens")
            a.updateGoldens = true;
        else if (opt == "--tol")
            a.tol = real(0, kMaxDouble);
        else if (opt == "--modes")
            a.modes = need();
        else if (opt == "--resume")
            a.resume = true;
        else if (opt == "--inspect")
            a.inspect = true;
        else if (opt == "--timeout-seconds")
            a.timeoutSeconds = real(0, kMaxDouble);
        else if (opt == "--drain-seconds")
            a.drainSeconds = real(0, 3600);
        else if (opt == "--retries")
            a.retries = static_cast<unsigned>(count(0, kMaxUnsigned));
        else if (opt == "--shards")
            a.shards = static_cast<unsigned>(count(0, kMaxShards));
        else if (opt == "--max-restarts")
            a.maxRestarts = static_cast<unsigned>(count(0, kMaxUnsigned));
        else if (opt == "--heartbeat-seconds")
            a.heartbeatSeconds = real(0, kMaxDouble);
        else if (opt == "--no-redispatch")
            a.redispatch = false;
        else if (opt == "--journal")
            a.journal = need();
        else if (opt == "--follow")
            a.follow = true;
        else if (opt == "--prom")
            a.prom = true;
        else if (opt == "--interval") {
            a.intervalSeconds = real(0, kMaxDouble);
            if (a.intervalSeconds == 0)
                throw UsageError("--interval must be positive");
        } else if (opt == "--socket")
            a.socket = need();
        else if (opt == "--port")
            a.port = static_cast<unsigned>(count(1, 65535));
        else if (opt == "--cache-mb") {
            a.cacheMb = real(0, kMaxDouble);
            if (a.cacheMb == 0)
                throw UsageError("--cache-mb must be positive");
        } else if (opt == "--get") {
            a.get = need();
            if (a.get.empty() || a.get.size() > 16 ||
                a.get.find_first_not_of("0123456789abcdefABCDEF") !=
                    std::string::npos)
                throw UsageError("--get wants a 1-16 digit hex key");
        } else if (opt == "--stats")
            a.statsRequest = true;
        else if (opt == "--max-conns")
            a.maxConns = static_cast<unsigned>(count(0, kMaxUnsigned));
        else if (opt == "--sim-queue")
            a.simQueue = static_cast<unsigned>(count(0, kMaxUnsigned));
        else if (opt == "--backlog")
            a.backlog = static_cast<int>(
                count(0, std::numeric_limits<int>::max()));
        else if (opt == "--idle-timeout-seconds")
            a.idleTimeoutSeconds = real(0, kMaxDouble);
        else if (opt == "--read-timeout-seconds")
            a.readTimeoutSeconds = real(0, kMaxDouble);
        else if (opt == "--write-timeout-seconds")
            a.writeTimeoutSeconds = real(0, kMaxDouble);
        else if (opt == "--request-deadline-seconds")
            a.requestDeadlineSeconds = real(0, kMaxDouble);
        else if (opt == "--compact-ratio")
            a.compactRatio = real(0, 1);
        else if (opt == "--compact-min-records")
            a.compactMinRecords = count(0, kMaxU64);
        else if (opt == "--profile")
            a.profile = true;
        else
            throw UsageError(csprintf("unknown option '%s'",
                                      opt.c_str()));
    }
    // --profile arms the process-wide profiler that POWERCHOP_PROFILE
    // latched at global()'s first use; doing it in the option funnel
    // covers every subcommand with one line.
    if (a.profile)
        telemetry::StageProfiler::global().setEnabled(true);
    return a;
}

/** Statusboard / flight recorder opt-outs: observability defaults on
 *  for campaigns and is disabled per run with POWERCHOP_NO_STATUS=1 /
 *  POWERCHOP_NO_FLIGHT=1 (both are write-only side channels, so the
 *  default costs nothing in report bytes). @{ */
bool
statusboardEnabled()
{
    return envUint64("POWERCHOP_NO_STATUS", 0, 1).value_or(0) == 0;
}

bool
flightRecorderEnabled()
{
    return envUint64("POWERCHOP_NO_FLIGHT", 0, 1).value_or(0) == 0;
}
/** @} */

/** Attach telemetry sinks requested by flags; returns the trace
 *  recorder when --trace / trace's --out asked for one. */
void
writeTelemetry(const Args &a, const std::string &trace_path,
               const telemetry::TraceRecorder &trace,
               const telemetry::MetricsRegistry &metrics)
{
    if (!trace_path.empty()) {
        if (!telemetry::writeChromeTrace(trace_path, {&trace}))
            fatal("cannot write trace to '%s'", trace_path.c_str());
        std::printf("wrote %s (%zu events%s)\n", trace_path.c_str(),
                    trace.events().size(),
                    trace.droppedEvents()
                        ? csprintf(", %llu dropped",
                                   static_cast<unsigned long long>(
                                       trace.droppedEvents()))
                              .c_str()
                        : "");
    }
    if (!a.metricsOut.empty()) {
        const bool jsonl =
            a.metricsOut.size() > 6 &&
            a.metricsOut.substr(a.metricsOut.size() - 6) == ".jsonl";
        const bool ok = jsonl ? metrics.writeJsonl(a.metricsOut)
                              : metrics.writeCsv(a.metricsOut);
        if (!ok)
            fatal("cannot write metrics to '%s'",
                  a.metricsOut.c_str());
        std::printf("wrote %s (%zu windows)\n", a.metricsOut.c_str(),
                    metrics.rows().size());
    }
}

MachineConfig
resolveMachine(const Args &a, const WorkloadSpec &w)
{
    if (!a.machine.empty())
        return machineConfigByName(a.machine);
    return w.suite == Suite::MobileBench ? mobileConfig()
                                         : serverConfig();
}

void
printResult(const SimResult &r)
{
    std::printf("%s on %s [%s]\n", r.workload.c_str(),
                r.machine.c_str(), simModeName(r.mode));
    std::printf("  instructions  %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("  cycles        %.0f\n", static_cast<double>(r.cycles));
    std::printf("  IPC           %.3f\n", r.ipc());
    std::printf("  avg power     %.3f W (leakage %.3f W)\n",
                r.energy.averagePower(),
                r.energy.averageLeakagePower());
    std::printf("  energy        %.4g J\n", r.energy.totalEnergy());
    std::printf("  gated: VPU %s  BPU %s  MLC half %s / quarter %s / "
                "1-way %s\n",
                pct(r.vpuGatedFraction).c_str(),
                pct(r.bpuGatedFraction).c_str(),
                pct(r.mlcHalfFraction).c_str(),
                pct(r.mlcQuarterFraction).c_str(),
                pct(r.mlcOneWayFraction).c_str());
    if (r.mode == SimMode::PowerChop) {
        std::printf("  PVT: %llu lookups, %llu hits (%.4f%% misses "
                    "per translation)\n",
                    static_cast<unsigned long long>(r.pvtLookups),
                    static_cast<unsigned long long>(r.pvtHits),
                    100 * r.pvtMissPerTranslation);
    }
    if (r.mode == SimMode::DrowsyMlc) {
        std::printf("  drowsy: avg %.1f%% of lines drowsy, %llu "
                    "wakeups\n",
                    100 * r.mlcDrowsyFraction,
                    static_cast<unsigned long long>(r.drowsyWakes));
    }
}

int
cmdList()
{
    std::printf("%-15s %-12s %7s %9s\n", "name", "suite", "phases",
                "schedule");
    for (const auto &w : allWorkloads()) {
        std::printf("%-15s %-12s %7zu %8lluK\n", w.name.c_str(),
                    suiteName(w.suite), w.phases.size(),
                    static_cast<unsigned long long>(
                        w.scheduleLength() / 1000));
    }
    return 0;
}

int
cmdShow(const std::string &name)
{
    std::fputs(formatWorkloadSpec(resolveWorkload(name)).c_str(),
               stdout);
    return 0;
}

int
cmdRun(const std::string &name, const Args &a)
{
    WorkloadSpec w = resolveWorkload(name);
    if (!a.save.empty()) {
        saveWorkloadSpec(w, a.save);
        std::printf("wrote %s\n", a.save.c_str());
    }
    MachineConfig m = resolveMachine(a, w);
    SimOptions opts;
    opts.mode = a.mode;
    opts.maxInstructions = a.insns;
    opts.timeoutCycles = a.timeout;
    opts.audit = a.audit;

    telemetry::TraceRecorder trace;
    telemetry::MetricsRegistry metrics;
    if (!a.tracePath.empty())
        opts.trace = &trace;
    if (!a.metricsOut.empty()) {
        if (a.mode != SimMode::PowerChop)
            throw UsageError("--metrics-out requires --mode powerchop");
        opts.metrics = &metrics;
    }

    SimResult r = simulate(m, w, opts);
    if (a.json)
        std::printf("%s\n", r.toJson().c_str());
    else
        printResult(r);
    writeTelemetry(a, a.tracePath, trace, metrics);
    return 0;
}

int
cmdTrace(const std::string &name, const Args &a)
{
    WorkloadSpec w = resolveWorkload(name);
    MachineConfig m = resolveMachine(a, w);
    SimOptions opts;
    opts.mode = a.mode;
    opts.maxInstructions = a.insns;
    opts.timeoutCycles = a.timeout;
    opts.audit = a.audit;

    telemetry::TraceRecorder trace;
    telemetry::MetricsRegistry metrics;
    opts.trace = &trace;
    if (!a.metricsOut.empty() && a.mode == SimMode::PowerChop)
        opts.metrics = &metrics;

    SimResult r = simulate(m, w, opts);
    printResult(r);

    const std::string path =
        !a.out.empty() ? a.out : w.name + ".trace.json";
    writeTelemetry(a, path, trace, metrics);
    return 0;
}

int
cmdCompare(const std::string &name, const Args &a)
{
    WorkloadSpec w = resolveWorkload(name);
    MachineConfig m = resolveMachine(a, w);
    ComparisonRuns runs = runComparison(m, w, a.insns);
    if (a.audit) {
        verify::InvariantAuditor auditor;
        for (const SimResult *r :
             {&runs.fullPower, &runs.powerChop, &runs.minPower}) {
            verify::AuditReport rep = auditor.audit(*r, m);
            if (!rep.ok())
                fatal("audit of %s run failed: %s",
                      simModeName(r->mode), rep.toString().c_str());
        }
    }
    printResult(runs.fullPower);
    std::printf("\n");
    printResult(runs.powerChop);
    std::printf("\n");
    printResult(runs.minPower);
    std::printf("\nPowerChop vs full power: slowdown %s, power %s, "
                "energy %s, leakage %s\n",
                pct(runs.powerChop.slowdownVs(runs.fullPower)).c_str(),
                pct(runs.powerChop.powerReductionVs(runs.fullPower))
                    .c_str(),
                pct(runs.powerChop.energyReductionVs(runs.fullPower))
                    .c_str(),
                pct(runs.powerChop.leakageReductionVs(runs.fullPower))
                    .c_str());
    return 0;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        std::size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

int
cmdVerify(const Args &a)
{
    // verify's default budget favours CI latency over figure quality:
    // 200k instructions crosses many HTB windows and phase changes on
    // every built-in model but keeps the full matrix in seconds.
    const InsnCount insns = a.insnsSet ? a.insns : 200'000;

    verify::DifferentialMatrix matrix;
    matrix.insns = insns;
    if (!a.workloads.empty())
        matrix.workloads = splitList(a.workloads);
    if (!a.machine.empty())
        matrix.machines = {a.machine};
    if (a.modeSet)
        matrix.modes = {a.mode};
    if (!a.seeds.empty()) {
        for (const auto &s : splitList(a.seeds))
            matrix.faultSeeds.push_back(
                countFlag("--seeds", s, 0, kMaxU64));
    } else {
        // Fault-free plus one faulty seed: the differential contract
        // holds under injected faults too (both loops share the
        // deterministic per-run fault stream).
        matrix.faultSeeds = {0, 1009};
    }

    std::printf("differential: optimized simulate() vs reference "
                "oracle, %llu insns/case\n",
                static_cast<unsigned long long>(insns));
    verify::DifferentialReport report = verify::runDifferentialMatrix(
        matrix, [](const verify::DifferentialCase &c) {
            std::printf("  %s\n", c.toString().c_str());
            std::fflush(stdout);
        });
    std::printf("differential: %s\n", report.toString().c_str());

    bool golden_ok = true;
    if (!a.goldens.empty()) {
        // Goldens pin fault-free runs only; fault seeds exercise the
        // differential contract, not the snapshot store.
        std::vector<WorkloadSpec> workloads;
        for (const auto &wname : !matrix.workloads.empty()
                 ? matrix.workloads
                 : std::vector<std::string>{"perlbench", "namd", "canneal",
                                            "msn"}) {
            workloads.push_back(findWorkload(wname));
        }
        std::vector<std::string> machines = !matrix.machines.empty()
            ? matrix.machines
            : std::vector<std::string>{"server", "mobile"};
        std::vector<SimMode> modes = !matrix.modes.empty()
            ? matrix.modes
            : std::vector<SimMode>{SimMode::FullPower, SimMode::PowerChop,
                                   SimMode::MinPower, SimMode::TimeoutVpu,
                                   SimMode::DrowsyMlc};
        std::size_t updated = 0, checked = 0;
        for (SimJob &job :
             expandCampaignMatrix(workloads, machines, modes, insns, 0)) {
            job.opts.audit = true;
            SimResult r = simulate(job.machine, job.workload, job.opts);
            const std::string path = a.goldens + "/" +
                verify::goldenFileName(job.workload.name, job.machine.name,
                                       simModeName(job.opts.mode));
            if (a.updateGoldens) {
                verify::saveGolden(path, r.toJson());
                ++updated;
                continue;
            }
            verify::FlatJson golden;
            if (!verify::loadGolden(path, golden)) {
                std::printf("golden MISSING: %s (run with "
                            "--update-goldens)\n",
                            path.c_str());
                golden_ok = false;
                continue;
            }
            verify::GoldenDiff diff = verify::diffGolden(
                golden, verify::parseFlatJson(r.toJson(), "candidate"),
                a.tol);
            ++checked;
            if (!diff.ok()) {
                std::printf("golden FAIL: %s: %s\n", path.c_str(),
                            diff.toString().c_str());
                golden_ok = false;
            }
        }
        if (a.updateGoldens)
            std::printf("goldens: wrote %zu files to %s\n", updated,
                        a.goldens.c_str());
        else
            std::printf("goldens: %zu checked, %s\n", checked,
                        golden_ok ? "all ok" : "FAILURES");
    }

    return (report.ok() && golden_ok) ? 0 : 1;
}

/** The matrix axes named by the CLI options, with the defaults
 *  `campaign` and `client` share. Modes stay names: the client puts
 *  them on the wire. */
struct MatrixAxes
{
    std::vector<std::string> workloads, machines, modes;
    InsnCount insns = 0;
};

MatrixAxes
matrixAxes(const Args &a)
{
    MatrixAxes ax;
    ax.workloads = !a.workloads.empty()
        ? splitList(a.workloads)
        : std::vector<std::string>{"perlbench", "namd", "canneal", "msn"};
    ax.machines = !a.machine.empty()
        ? std::vector<std::string>{a.machine}
        : std::vector<std::string>{"server", "mobile"};
    if (!a.modes.empty())
        ax.modes = splitList(a.modes);
    else if (a.modeSet)
        ax.modes = {simModeName(a.mode)};
    else
        ax.modes = {"full-power", "powerchop", "min-power", "timeout-vpu",
                    "drowsy-mlc"};
    ax.insns = a.insnsSet ? a.insns : 200'000;
    return ax;
}

/** The campaign matrix named by the CLI options, in canonical
 *  (workload-major) order. Shared by the in-process campaign, the
 *  shard supervisor and the campaign-worker subcommand: all three
 *  must derive identical job lists (and so identical content keys)
 *  from the same flags. */
std::vector<SimJob>
buildCampaignJobs(const Args &a)
{
    const MatrixAxes ax = matrixAxes(a);
    std::vector<WorkloadSpec> specs;
    for (const auto &wname : ax.workloads)
        specs.push_back(resolveWorkload(wname));
    std::vector<SimMode> modes;
    for (const auto &m : ax.modes)
        modes.push_back(parseMode(m));
    return expandCampaignMatrix(specs, ax.machines, modes, ax.insns,
                                a.timeout);
}

/** The matrix-defining flags to forward to campaign-worker
 *  processes, so they rebuild exactly the supervisor's job list. */
std::vector<std::string>
matrixWorkerArgs(const Args &a)
{
    std::vector<std::string> args;
    if (!a.workloads.empty()) {
        args.push_back("--workloads");
        args.push_back(a.workloads);
    }
    if (!a.machine.empty()) {
        args.push_back("--machine");
        args.push_back(a.machine);
    }
    if (!a.modes.empty()) {
        args.push_back("--modes");
        args.push_back(a.modes);
    } else if (a.modeSet) {
        args.push_back("--mode");
        args.push_back(simModeName(a.mode));
    }
    if (a.insnsSet) {
        args.push_back("--insns");
        args.push_back(csprintf(
            "%llu", static_cast<unsigned long long>(a.insns)));
    }
    if (a.timeout != 0) {
        args.push_back("--timeout");
        args.push_back(csprintf("%.17g", a.timeout));
    }
    if (a.drainSeconds != 5.0) {
        args.push_back("--drain-seconds");
        args.push_back(csprintf("%.17g", a.drainSeconds));
    }
    // Not matrix-defining, but per-process: workers must arm their
    // own profiler to contribute stage tables to the statusboard.
    if (a.profile)
        args.push_back("--profile");
    return args;
}

int
cmdStatus(const std::string &dir, const Args &a)
{
    if (a.json && a.prom)
        throw UsageError(
            "status: --json and --prom are mutually exclusive");
    for (;;) {
        const std::vector<StatusEntry> entries = readStatusDir(dir);
        if (entries.empty()) {
            // Scripts must be able to tell "no campaign here" from
            // "campaign finished": an empty/missing status directory
            // is a usage-style error, not an empty success.
            std::fprintf(
                stderr,
                "status: no status snapshots under %s/status "
                "(no campaign or powerchopd started here, or "
                "observability disabled with "
                "POWERCHOP_NO_STATUS=1)\n",
                dir.c_str());
            return 2;
        }
        std::string out;
        if (a.json)
            out = renderStatusJson(dir, entries);
        else if (a.prom)
            out = renderStatusPrometheus(entries);
        else
            out = renderStatusTable(entries);
        std::fputs(out.c_str(), stdout);
        std::fflush(stdout);
        if (!a.follow)
            return 0;
        // --follow: redraw until interrupted (default SIGINT ends
        // the loop by terminating the process, which is fine — the
        // statusboard is read-only).
        std::this_thread::sleep_for(
            std::chrono::duration<double>(a.intervalSeconds));
        std::printf("\n");
    }
}

int
cmdServe(const std::string &dir, const Args &a)
{
    makeCampaignDirs(dir);
    installCampaignSignalHandlers();

    ServeOptions sopts;
    if (a.port != 0)
        sopts.port = static_cast<unsigned short>(a.port);
    else
        sopts.socketPath =
            !a.socket.empty() ? a.socket : dir + "/powerchopd.sock";
    sopts.cache.maxBytes =
        static_cast<std::size_t>(a.cacheMb * (1u << 20));
    sopts.cache.journalPath = dir + "/cache.jsonl";
    sopts.cache.compactDeadRatio = a.compactRatio;
    sopts.cache.compactMinRecords = a.compactMinRecords;
    sopts.jobTimeoutSeconds = a.timeoutSeconds;
    sopts.listenBacklog = a.backlog;
    sopts.maxConnections = a.maxConns;
    sopts.simQueueDepth = a.simQueue;
    sopts.idleTimeoutSeconds = a.idleTimeoutSeconds;
    sopts.readTimeoutSeconds = a.readTimeoutSeconds;
    sopts.writeTimeoutSeconds = a.writeTimeoutSeconds;
    sopts.requestDeadlineSeconds = a.requestDeadlineSeconds;
    sopts.drainSeconds = a.drainSeconds;
    sopts.stopFlag = &campaignInterruptFlag();
    if (statusboardEnabled()) {
        makeCampaignDirs(statusDirPath(dir));
        sopts.statusPath = statusDirPath(dir) + "/server.json";
    }
    if (flightRecorderEnabled())
        FlightRecorder::global().enable(dir + "/flight.jsonl");
    sopts.onEvent = [](const std::string &msg) {
        inform("[powerchopd] %s", msg.c_str());
    };

    SimServer server(sopts);
    const ServeStats st = server.run();
    std::printf("powerchopd: %s\n", serveSummary(st).c_str());
    // A drained daemon exits like an interrupted campaign: 3 tells
    // a supervisor "clean but signal-initiated" (a second signal
    // hard-exits 128+sig from the handler itself).
    return campaignInterruptFlag().load() ? campaignInterruptedExitStatus
                                          : 0;
}

int
cmdClient(const Args &a)
{
    if (a.socket.empty() && a.port == 0)
        throw UsageError("client requires --socket PATH or --port N");
    if (!a.get.empty() && a.statsRequest)
        throw UsageError(
            "client: --get and --stats are mutually exclusive");

    ServeClient client;
    ClientRetryPolicy policy;
    policy.retries = a.retries;
    policy.timeoutSeconds = a.timeoutSeconds;
    client.setRetryPolicy(policy);
    std::string err;
    bool connected = a.port != 0
        ? client.connectTcp(static_cast<unsigned short>(a.port),
                            &err)
        : client.connectUnix(a.socket, &err);
    // A failed dial is retryable too (the daemon may be mid-
    // restart): request() redials with backoff, so only give up
    // now when no retries were asked for.
    if (!connected && a.retries == 0)
        fatal("client: %s", err.c_str());

    ServeReply reply;
    if (a.statsRequest) {
        reply = client.stats();
    } else if (!a.get.empty()) {
        reply = client.get(std::strtoull(a.get.c_str(), nullptr, 16));
    } else {
        // Matrix flags become a SIM spec with the same defaults as
        // `powerchop campaign`, so the served report matches a
        // direct run of the identical command line byte-for-byte.
        const MatrixAxes ax = matrixAxes(a);
        reply = client.sim(formatSimSpec(ax.workloads, ax.machines,
                                         ax.modes, ax.insns, a.timeout));
    }

    if (reply.ioFailed) {
        fatal("client: %s",
              !reply.error.empty() ? reply.error.c_str()
                                   : "request failed (daemon gone?)");
    }
    if (reply.status == ResponseStatus::Err) {
        std::fprintf(stderr, "ERR: %s", reply.payload.c_str());
        return 1;
    }
    if (reply.status == ResponseStatus::Busy) {
        std::fprintf(stderr, "BUSY: %s", reply.payload.c_str());
        return 1;
    }
    if (reply.status == ResponseStatus::Miss) {
        std::fprintf(stderr, "MISS\n");
        return 1;
    }
    // HIT/OK: the payload verbatim — byte-identity is the contract,
    // so nothing is added but a final newline when the payload
    // itself lacks one (GET payloads are single-line JSON).
    std::fwrite(reply.payload.data(), 1, reply.payload.size(),
                stdout);
    if (!reply.payload.empty() && reply.payload.back() != '\n')
        std::printf("\n");
    return 0;
}

int
cmdShardedCampaign(const std::string &dir, const Args &a)
{
    installCampaignSignalHandlers();

    ShardSupervisorOptions sopts;
    sopts.shards = a.shards;
    sopts.resume = a.resume;
    sopts.maxRestarts = a.maxRestarts;
    sopts.heartbeatTimeoutSeconds = a.heartbeatSeconds;
    sopts.drainSeconds = a.drainSeconds;
    sopts.redispatch = a.redispatch;
    sopts.jobTimeoutSeconds = a.timeoutSeconds;
    sopts.maxRetries = a.retries;
    sopts.workerArgs = matrixWorkerArgs(a);
    sopts.publishStatus = statusboardEnabled();
    if (flightRecorderEnabled())
        FlightRecorder::global().enable(dir + "/flight.jsonl");
    sopts.onEvent = [](const std::string &msg) {
        // Supervision events (spawn/crash/restart/redispatch) are the
        // campaign's operational log; the limiter caps a crash-
        // restart storm while the generous burst keeps every event of
        // a normal run printed.
        static LogRateLimiter limiter(20.0, 60.0);
        informLimited(limiter, "[supervisor] %s", msg.c_str());
    };

    const ShardSupervisorResult res =
        runShardedCampaign(buildCampaignJobs(a), dir, sopts);

    std::printf("campaign: %s\n", res.campaign.summary().c_str());
    std::printf("report: %s/report.json\n", dir.c_str());

    // The supervision tallies land in the campaign directory (never
    // the current one) as a runner row, so crash/restart counts are
    // tracked alongside throughput; POWERCHOP_RUNNER_JSON redirects
    // them, e.g. into a BENCH trajectory.
    RunnerReport rep;
    rep.jobs = res.campaign.keys.size();
    rep.threads = static_cast<unsigned>(res.shards);
    rep.wallSeconds = res.wallSeconds;
    rep.okJobs = res.campaign.keys.size();
    for (const auto &o : res.campaign.outcomes)
        rep.okJobs -= o.status != JobStatus::Ok;
    rep.failedJobs = 0;
    for (const auto &o : res.campaign.outcomes)
        rep.failedJobs += o.status == JobStatus::Failed;
    rep.workerCrashes = res.crashes;
    rep.workerRestarts = res.restarts;
    rep.redispatches = res.redispatches;
    const std::string bench_path =
        envString("POWERCHOP_RUNNER_JSON").value_or(dir + "/runner.json");
    appendJsonArrayEntryOk(bench_path,
                           rep.toJson("campaign-shards"));

    if (res.campaign.interrupted)
        return campaignInterruptedExitStatus;
    return res.campaign.complete() ? 0 : 1;
}

int
cmdCampaignWorker(const std::string &dir, const Args &a)
{
    if (a.journal.empty())
        throw UsageError("campaign-worker requires --journal PATH");

    // Assignment: one 16-hex content key per stdin line, EOF ends it.
    std::vector<std::uint64_t> assigned;
    unsigned long long assigned_key;
    while (std::scanf("%llx", &assigned_key) == 1)
        assigned.push_back(assigned_key);

    // Rebuild the matrix from the forwarded flags and keep only the
    // assigned keys. An assigned key the matrix cannot produce means
    // supervisor and worker disagree about the spec — fatal, because
    // silently dropping it would stall the campaign.
    const std::vector<SimJob> matrix = buildCampaignJobs(a);
    CampaignKeyIndex index;
    campaignJobKeys(matrix, &index);
    std::vector<SimJob> jobs;
    for (std::uint64_t key : assigned) {
        const auto it = index.find(key);
        if (it == index.end()) {
            fatal("campaign-worker: assigned key %016llx matches no "
                  "job of this matrix (flag mismatch with the "
                  "supervisor?)",
                  static_cast<unsigned long long>(key));
        }
        jobs.push_back(matrix[it->second]);
    }

    installCampaignSignalHandlers();

    // The worker's statusboard identity is its journal basename
    // ("shard-0000", "shard-0000-h1"): unique per worker process in
    // the campaign dir, stable across restarts of the same shard.
    const std::string label =
        std::filesystem::path(a.journal).stem().string();

    SimJobRunner runner;
    std::unique_ptr<CampaignStatus> status;
    if (statusboardEnabled()) {
        makeCampaignDirs(statusDirPath(dir));
        status = std::make_unique<CampaignStatus>(
            statusDirPath(dir) + "/" + label + ".json", "shard-worker",
            label, runner);
    }
    if (flightRecorderEnabled()) {
        FlightRecorder::global().enable(dir + "/flight-" + label +
                                        ".jsonl");
    }

    // Protocol stdout (ready/hb/done lines) is shared between worker
    // threads and the heartbeat thread.
    std::mutex out_mutex;
    const auto emit = [&](const std::string &line) {
        std::lock_guard<std::mutex> lock(out_mutex);
        std::fputs((line + "\n").c_str(), stdout);
        std::fflush(stdout);
    };
    emit(csprintf("ready %zu", jobs.size()));

    // ~500ms heartbeat keeps hang detection cheap and prompt; the
    // 100ms slices keep worker exit snappy.
    std::atomic<bool> hb_stop{false};
    std::thread heartbeat([&] {
        int tick = 0;
        while (!hb_stop.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            if (++tick >= 5) {
                tick = 0;
                emit("hb");
            }
        }
    });

    // Crash injection for the containment tests: kill this process
    // at the worst possible point — after the assigned job's work,
    // immediately before its record becomes durable — exactly once
    // (a marker file survives the crash and disarms the injection in
    // the restarted worker).
    const std::uint64_t crash_key =
        std::strtoull(envString("POWERCHOP_TEST_CRASH_KEY")
                          .value_or("0")
                          .c_str(),
                      nullptr, 16);
    const std::string crash_mode =
        envString("POWERCHOP_TEST_CRASH_MODE").value_or("segv");

    CampaignOptions copts;
    copts.timeoutSeconds = a.timeoutSeconds;
    copts.maxRetries = a.retries;
    copts.drainSeconds = a.drainSeconds;
    copts.preJournal = [&](std::uint64_t key, const JobOutcome &) {
        if (crash_key == 0 || key != crash_key)
            return;
        const std::string marker = csprintf(
            "%s/.crash-fired-%016llx", dir.c_str(),
            static_cast<unsigned long long>(crash_key));
        if (::access(marker.c_str(), F_OK) == 0)
            return;
        atomicWriteFile(marker, "armed-once\n");
        if (crash_mode == "kill") {
            ::kill(::getpid(), SIGKILL);
        } else if (crash_mode == "abort") {
            std::abort();
        } else {
            ::raise(SIGSEGV);
        }
    };
    copts.onJobDone = [&](std::uint64_t key, const JobOutcome &o) {
        emit(csprintf("done %016llx %s",
                      static_cast<unsigned long long>(key),
                      jobStatusName(o.status)));
    };

    ResultCache store(campaignStoreOptions(a.journal));
    const CampaignResult res =
        runJournaledBatch(runner, store, jobs, copts, status.get());

    hb_stop.store(true, std::memory_order_relaxed);
    heartbeat.join();
    if (status)
        status->finish();

    // Every job not interrupted holds a terminal journal record.
    return res.interrupted ? campaignInterruptedExitStatus : 0;
}

int
cmdCampaign(const std::string &dir, const Args &a)
{
    if (a.inspect) {
        // Summarize the journal without dispatching anything.
        const JournalReplay replay = loadJournal(dir + "/journal.jsonl");
        std::printf("journal: %zu lines, %zu live records "
                    "(%zu corrupt, %zu torn, %zu superseded)\n",
                    replay.lines, replay.records.size(),
                    replay.corrupted, replay.truncated,
                    replay.duplicates);
        for (const auto &rec : replay.records) {
            std::printf("  %016llx %s\n",
                        static_cast<unsigned long long>(rec.key),
                        rec.status.c_str());
        }
        return 0;
    }

    // --shards hands the whole campaign to the process supervisor:
    // same matrix, same directory, same report bytes.
    if (a.shards > 0)
        return cmdShardedCampaign(dir, a);

    // The matrix, in canonical order (workload-major): the same
    // defaults as verify's golden sweep.
    const std::vector<SimJob> jobs = buildCampaignJobs(a);

    installCampaignSignalHandlers();
    SimJobRunner runner;
    CampaignOptions copts;
    copts.resume = a.resume;
    copts.timeoutSeconds = a.timeoutSeconds;
    copts.maxRetries = a.retries;
    copts.drainSeconds = a.drainSeconds;
    copts.publishStatus = statusboardEnabled();
    if (flightRecorderEnabled())
        FlightRecorder::global().enable(dir + "/flight.jsonl");
    copts.onProgress = [](std::size_t done, std::size_t total) {
        // Generous budget: a wide matrix emits at most a few hundred
        // lines, and only a pathological retry storm gets throttled.
        static LogRateLimiter limiter(50.0, 200.0);
        informLimited(limiter, "[campaign %zu/%zu]", done, total);
    };

    const CampaignResult res = runCampaign(runner, jobs, dir, copts);
    std::printf("campaign: %s\n", res.summary().c_str());
    std::printf("report: %s/report.json\n", dir.c_str());
    if (res.interrupted)
        return campaignInterruptedExitStatus;
    return res.complete() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    std::vector<std::string> rest;
    for (int i = 3; i < argc; ++i)
        rest.emplace_back(argv[i]);

    try {
        std::string cmd = argv[1];
        if (cmd == "--version" || cmd == "version") {
            std::printf("powerchop %s\n", POWERCHOP_VERSION);
            return 0;
        }
        if (cmd == "list" && argc == 2)
            return cmdList();
        if (cmd == "show" && argc == 3)
            return cmdShow(argv[2]);
        if (cmd == "run" && argc >= 3)
            return cmdRun(argv[2], parseOptions(rest));
        if (cmd == "compare" && argc >= 3)
            return cmdCompare(argv[2], parseOptions(rest));
        if (cmd == "trace" && argc >= 3)
            return cmdTrace(argv[2], parseOptions(rest));
        if (cmd == "campaign" && argc >= 3)
            return cmdCampaign(argv[2], parseOptions(rest));
        if (cmd == "campaign-worker" && argc >= 3)
            return cmdCampaignWorker(argv[2], parseOptions(rest));
        if (cmd == "status" && argc >= 3)
            return cmdStatus(argv[2], parseOptions(rest));
        if (cmd == "serve" && argc >= 3)
            return cmdServe(argv[2], parseOptions(rest));
        if (cmd == "client") {
            // client has no positional: every argv after the
            // subcommand is an option (the daemon address flags).
            std::vector<std::string> crest;
            for (int i = 2; i < argc; ++i)
                crest.emplace_back(argv[i]);
            return cmdClient(parseOptions(crest));
        }
        if (cmd == "verify") {
            // verify has no <workload> positional: every argv after
            // the subcommand is an option.
            std::vector<std::string> vrest;
            for (int i = 2; i < argc; ++i)
                vrest.emplace_back(argv[i]);
            return cmdVerify(parseOptions(vrest));
        }
    } catch (const UsageError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    // Unknown subcommand (or malformed arity): usage, exit 2.
    return usage();
}
