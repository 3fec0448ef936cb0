/**
 * @file
 * Helpers of the repo benchmark: seeded draws, the result digest,
 * latency quantiles and request classes, host-time spans with self
 * time, and host fingerprinting. Everything here is pure or host-only
 * (it never feeds back into a simulation), so it can be unit-tested
 * without running the program.
 */

#ifndef PERFBENCH_BENCH_LIB_HH
#define PERFBENCH_BENCH_LIB_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hh"

namespace perfbench
{

/** SplitMix64: a tiny deterministic generator, identical on every
 *  platform (std::shuffle's algorithm is implementation-defined). */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, n); n must be positive. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return (next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state_;
};

/** A seeded Fisher-Yates permutation of [0, n). */
std::vector<std::size_t> seededPermutation(std::uint64_t seed,
                                           std::size_t n);

/**
 * The request key sequence of one cold serving epoch: every key of
 * [0, nKeys) once, in seeded order, with a seeded share of extra
 * slots that repeat a key from the previous `window` slots (a key
 * another client sent moments earlier). A pure function of its
 * arguments.
 */
std::vector<std::size_t> drawKeys(std::uint64_t seed, std::size_t nKeys,
                                  double repeatShare,
                                  std::size_t window);

/**
 * Order-independent digest over (content key, payload) pairs: the
 * 64-bit sum of FNV-1a over each "key:payload" record, plus the
 * record count, as "<count>:<16 hex>".
 */
std::string resultDigest(const std::vector<std::uint64_t> &keys,
                         const std::vector<std::string> &payloads);

/** Nearest-rank percentile (pct in (0, 100]); 0 when empty. */
double percentile(std::vector<double> v, double pct);

/** Median (nearest-rank p50); 0 when empty. */
double median(std::vector<double> v);

/** A tail quantile chosen by sample count. */
struct Tail
{
    double pct = 0;          ///< The percentile reported.
    double value = 0;        ///< Its value.
    std::size_t beyond = 0;  ///< Samples strictly past its rank.
    std::size_t samples = 0; ///< All samples.
};

/**
 * The highest standard percentile no greater than `maxPct` (one of
 * 99.9, 99, 98, 95, 90, 75, 50) with at least `minBeyond` samples
 * beyond its rank. Falls back to p50 when even that has too few.
 */
Tail tailQuantile(std::vector<double> v, double maxPct,
                  std::size_t minBeyond = 10);

/** Latency class of one client request. */
enum class RequestClass : std::uint8_t
{
    GetHit,
    GetMiss,
    SimHit,
    SimMiss,
    Err,
    Busy,
    Transport, ///< No response: connect/read/write failure.
    Count,
};

/** @return "get-hit", "sim-miss", ... */
const char *requestClassName(RequestClass c);

/** Classify a reply by the verb sent and the status received. */
RequestClass classifyReply(bool isGet, powerchop::ResponseStatus status,
                           bool ioFailed);

/** Request latencies bucketed by class. */
struct ClassLatencies
{
    std::array<std::vector<double>,
               static_cast<std::size_t>(RequestClass::Count)>
        ms;

    void add(RequestClass c, double latencyMs);
    void merge(const ClassLatencies &other);
    const std::vector<double> &of(RequestClass c) const;
    std::size_t total() const;

    /** Every sample, all classes. */
    std::vector<double> all() const;
};

/** One host-time span: [start, end] in monotonic seconds. */
struct Span
{
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< -1 for a root.
    std::string name;
    double start = 0;
    double end = 0;
    std::int64_t rid = -1; ///< Request / job id, -1 when none.
    int lane = 0;          ///< Trace row (worker, client).
};

/**
 * Span store. Spans are kept in memory and written out once, as a
 * Chrome trace, when the run ends. A disabled tracer records nothing
 * and returns id -1.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Start (or stop) recording; spans already kept stay. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span now; close() stamps its end. */
    std::int64_t open(const std::string &name, std::int64_t parent,
                      std::int64_t rid = -1, int lane = 0);
    void close(std::int64_t id);

    /** Record an already-timed span. */
    std::int64_t add(const std::string &name, std::int64_t parent,
                     double start, double end, std::int64_t rid = -1,
                     int lane = 0);

    std::vector<Span> spans() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Length of the union of intervals, clipped to [lo, hi]. */
double unionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi);

/**
 * Self time of span `id`: its duration minus the union of its direct
 * children (children running in parallel on several workers count
 * once). 0 when the id is unknown.
 */
double selfTime(const std::vector<Span> &spans, std::int64_t id);

/** Self time of every span, in the order of `spans`. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Duration of span `id`, 0 when unknown. */
double spanDuration(const std::vector<Span> &spans, std::int64_t id);

/** CPUs this process may run on (what nproc prints). */
unsigned hostCpuCount();

/** The first "model name" of /proc/cpuinfo. */
std::string hostCpuModel();

/** CPU seconds consumed by the calling thread. */
double threadCpuSeconds();

/**
 * Parallel ceiling of this host: the same fixed spin work run on one
 * thread and then on `threads` threads at once; returns threads x
 * single-thread time / parallel wall time.
 */
double spinParallelCeiling(unsigned threads);

/** Steal and total jiffies of all CPUs (/proc/stat), to report how
 *  much CPU time the hypervisor withheld during a run. */
struct CpuTicks
{
    double steal = 0;
    double total = 0;
};
CpuTicks hostCpuTicks();

/** Peak resident set (VmHWM) of process `pid` in MiB; 0 if unknown. */
double processPeakRssMb(int pid);

} // namespace perfbench

#endif // PERFBENCH_BENCH_LIB_HH
