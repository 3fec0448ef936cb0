/**
 * @file
 * Lightweight statistics package.
 *
 * Models the small subset of the gem5 stats package the simulator
 * needs: named scalar counters, averages and distributions that can be
 * registered in a group, dumped as text, and reset between simulation
 * windows (the Criticality Decision Engine profiles phases by sampling
 * these counters at window boundaries).
 */

#ifndef POWERCHOP_COMMON_STATS_HH
#define POWERCHOP_COMMON_STATS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace powerchop
{
namespace json
{
class Value;
} // namespace json

namespace stats
{

/** A named monotonically increasing scalar counter. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** A running mean of sampled values. */
class Average
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    /** @return the mean of all samples, or 0 if none. */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** A fixed-bucket histogram over [min, max). */
class Distribution
{
  public:
    /**
     * @param min     Low edge of the first bucket.
     * @param max     High edge of the last bucket.
     * @param buckets Number of equal-width buckets.
     */
    Distribution(double min, double max, unsigned buckets);

    /** Record one sample; out-of-range samples land in the edge
     *  buckets and are counted in underflow/overflow. */
    void sample(double v);

    std::uint64_t bucketCount(unsigned i) const;
    std::uint64_t totalSamples() const { return samples_; }
    std::uint64_t underflows() const { return underflow_; }
    std::uint64_t overflows() const { return overflow_; }
    double mean() const;

    /**
     * Approximate percentile from the histogram.
     *
     * Walks the buckets until the cumulative count reaches p of all
     * samples and returns that bucket's upper edge (underflow and
     * overflow samples count in the edge buckets, so results are
     * clamped to [min, max]). Panics when p is outside [0, 1] or no
     * samples were recorded.
     *
     * @param p Percentile in [0, 1], e.g. 0.99.
     */
    double percentile(double p) const;

    void reset();

  private:
    double min_;
    double max_;
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t samples_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    double sum_ = 0.0;
};

/** Summary quantiles of a Log2Histogram, in the sampled unit. */
struct Quantiles
{
    std::uint64_t samples = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
};

/** `q` as a JSON object of its sample count and p50/p90/p99 (`%.6f`
 *  reals): the one spelling of a quantile block in every report,
 *  status snapshot and STATS document. */
std::string quantilesJson(const Quantiles &q);

/** Read a quantilesJson() block; absent members read as 0. */
Quantiles parseQuantiles(const json::Value &block);

/**
 * A lock-free fixed-bucket log2 histogram over unsigned values.
 *
 * Bucket i > 0 covers [2^(i-1), 2^i); bucket 0 holds zeros. With 64
 * buckets the full uint64 range is covered, so latencies recorded in
 * nanoseconds never overflow. sample() is wait-free (one relaxed
 * fetch_add per bucket plus the sum/count tallies), so worker threads
 * of the job runner and the journal writer can record concurrently
 * with no shared lock; readers obtain a consistent-enough view for
 * monitoring (quantiles are approximations by construction — a
 * slightly torn read moves them less than the bucketing already
 * does).
 *
 * merge() is bucket-wise addition, which is associative and
 * commutative: merging per-shard histograms in any order yields the
 * same aggregate, the property the statusboard aggregation relies on.
 */
class Log2Histogram
{
  public:
    static constexpr unsigned kBuckets = 64;

    Log2Histogram() = default;

    /** Copyable via relaxed snapshots (for report structs). @{ */
    Log2Histogram(const Log2Histogram &other) { *this = other; }
    Log2Histogram &operator=(const Log2Histogram &other);
    /** @} */

    /** Record one value (wait-free, thread-safe). */
    void sample(std::uint64_t v);

    /** Bucket index of a value: 0 for 0, else floor(log2 v) + 1,
     *  clamped to kBuckets - 1. */
    static unsigned bucketIndex(std::uint64_t v);

    /** Inclusive low edge of bucket i (0 for buckets 0 and 1). */
    static std::uint64_t bucketLow(unsigned i);

    /** Exclusive high edge of bucket i. */
    static std::uint64_t bucketHigh(unsigned i);

    std::uint64_t bucketCount(unsigned i) const;
    std::uint64_t samples() const;
    std::uint64_t sum() const;

    /** Mean of all samples (exact: the sum is tallied, not
     *  reconstructed from buckets), or 0 with no samples. */
    double mean() const;

    /**
     * Approximate quantile q in [0, 1] by cumulative bucket walk
     * with linear interpolation inside the target bucket. Monotone
     * in q; returns 0 with no samples.
     */
    double quantile(double q) const;

    /** p50/p90/p99 in one call (milliseconds when the histogram was
     *  sampled in nanoseconds and scale = 1e-6). */
    Quantiles quantiles(double scale = 1.0) const;

    /** Add another histogram's buckets into this one. */
    void merge(const Log2Histogram &other);

    void reset();

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> samples_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * A named group of statistics, dumpable as "name value" lines.
 *
 * Groups do not own the stats; they reference stats owned by the
 * component objects, mirroring gem5's registration style.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    /** Register a scalar under this group. The scalar must outlive the
     *  group. */
    void addScalar(const std::string &name, const Scalar *s);

    /** Register an average under this group. */
    void addAverage(const std::string &name, const Average *a);

    /** Render all registered stats as text, one per line. */
    std::string dump() const;

    /** Render as a JSON object: {"<group>.<stat>": value, ...}.
     *  Scalars render as integers, averages as their mean. */
    std::string toJson() const;

    const std::string &name() const { return name_; }

    /** Registered stats by name (iteration order is sorted). @{ */
    const std::map<std::string, const Scalar *> &scalars() const
    {
        return scalars_;
    }
    const std::map<std::string, const Average *> &averages() const
    {
        return averages_;
    }
    /** @} */

  private:
    std::string name_;
    std::map<std::string, const Scalar *> scalars_;
    std::map<std::string, const Average *> averages_;
};

} // namespace stats
} // namespace powerchop

#endif // POWERCHOP_COMMON_STATS_HH
