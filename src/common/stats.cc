#include "common/stats.hh"

#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"

namespace powerchop
{
namespace stats
{

std::string
quantilesJson(const Quantiles &q)
{
    return csprintf("{\"samples\":%llu,\"p50\":%.6f,\"p90\":%.6f,"
                    "\"p99\":%.6f}",
                    static_cast<unsigned long long>(q.samples), q.p50,
                    q.p90, q.p99);
}

Quantiles
parseQuantiles(const json::Value &block)
{
    return {block.getUint64("samples"), block.getDouble("p50"),
            block.getDouble("p90"), block.getDouble("p99")};
}

Distribution::Distribution(double min, double max, unsigned buckets)
    : min_(min), max_(max),
      bucketWidth_((max - min) / (buckets ? buckets : 1)),
      buckets_(buckets, 0)
{
    if (buckets == 0)
        panic("Distribution requires at least one bucket");
    if (max <= min)
        panic("Distribution requires max > min");
}

void
Distribution::sample(double v)
{
    ++samples_;
    sum_ += v;
    if (v < min_) {
        ++underflow_;
        ++buckets_.front();
    } else if (v >= max_) {
        ++overflow_;
        ++buckets_.back();
    } else {
        auto idx = static_cast<std::size_t>((v - min_) / bucketWidth_);
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
    }
}

std::uint64_t
Distribution::bucketCount(unsigned i) const
{
    if (i >= buckets_.size())
        panic("Distribution bucket index %u out of range", i);
    return buckets_[i];
}

double
Distribution::mean() const
{
    return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
}

double
Distribution::percentile(double p) const
{
    if (!(p >= 0.0 && p <= 1.0))
        panic("Distribution percentile %f outside [0, 1]", p);
    if (samples_ == 0)
        panic("Distribution percentile of an empty distribution");
    const double target = p * static_cast<double>(samples_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (static_cast<double>(seen) >= target)
            return min_ + bucketWidth_ * static_cast<double>(i + 1);
    }
    return max_;
}

void
Distribution::reset()
{
    for (auto &b : buckets_)
        b = 0;
    samples_ = 0;
    underflow_ = 0;
    overflow_ = 0;
    sum_ = 0.0;
}

Log2Histogram &
Log2Histogram::operator=(const Log2Histogram &other)
{
    if (this == &other)
        return *this;
    for (unsigned i = 0; i < kBuckets; ++i) {
        buckets_[i].store(
            other.buckets_[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    }
    samples_.store(other.samples_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    sum_.store(other.sum_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    return *this;
}

unsigned
Log2Histogram::bucketIndex(std::uint64_t v)
{
    if (v == 0)
        return 0;
    // floor(log2 v) + 1 == the bit width of v.
    unsigned width = 0;
    while (v != 0) {
        ++width;
        v >>= 1;
    }
    return width < kBuckets ? width : kBuckets - 1;
}

std::uint64_t
Log2Histogram::bucketLow(unsigned i)
{
    if (i <= 1)
        return 0;
    return std::uint64_t{1} << (i - 1);
}

std::uint64_t
Log2Histogram::bucketHigh(unsigned i)
{
    if (i == 0)
        return 1;
    if (i >= kBuckets - 1)
        return ~std::uint64_t{0};
    return std::uint64_t{1} << i;
}

void
Log2Histogram::sample(std::uint64_t v)
{
    buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    samples_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t
Log2Histogram::bucketCount(unsigned i) const
{
    if (i >= kBuckets)
        panic("Log2Histogram bucket index %u out of range", i);
    return buckets_[i].load(std::memory_order_relaxed);
}

std::uint64_t
Log2Histogram::samples() const
{
    return samples_.load(std::memory_order_relaxed);
}

std::uint64_t
Log2Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Log2Histogram::mean() const
{
    const std::uint64_t n = samples();
    return n ? static_cast<double>(sum()) / static_cast<double>(n)
             : 0.0;
}

double
Log2Histogram::quantile(double q) const
{
    // Written as !(in-range) so a NaN q is rejected too: NaN compares
    // false against both bounds, and a NaN target would fall through
    // the bucket walk and report the top bucket bound (~1.8e19) as a
    // "quantile".
    if (!(q >= 0.0 && q <= 1.0))
        panic("Log2Histogram quantile %f outside [0, 1]", q);
    // Quantiles over a snapshot of the buckets: a concurrent sampler
    // may land between the loads, which only perturbs an already
    // approximate answer. The snapshot's own total (not samples_) is
    // the denominator so the walk always terminates inside it.
    std::array<std::uint64_t, kBuckets> counts;
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
        total += counts[i];
    }
    if (total == 0)
        return 0.0;

    const double target = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (counts[i] == 0)
            continue;
        if (static_cast<double>(seen + counts[i]) >= target) {
            // Linear interpolation inside the bucket keeps the
            // function monotone in q and the answer within the
            // bucket's bounds.
            const double lo = static_cast<double>(bucketLow(i));
            const double hi = static_cast<double>(bucketHigh(i));
            const double frac = counts[i]
                ? (target - static_cast<double>(seen)) /
                      static_cast<double>(counts[i])
                : 0.0;
            const double f = frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac);
            return lo + (hi - lo) * f;
        }
        seen += counts[i];
    }
    return static_cast<double>(bucketHigh(kBuckets - 1));
}

Quantiles
Log2Histogram::quantiles(double scale) const
{
    Quantiles q;
    q.samples = samples();
    if (q.samples == 0)
        return q;
    q.p50 = quantile(0.50) * scale;
    q.p90 = quantile(0.90) * scale;
    q.p99 = quantile(0.99) * scale;
    return q;
}

void
Log2Histogram::merge(const Log2Histogram &other)
{
    for (unsigned i = 0; i < kBuckets; ++i) {
        const std::uint64_t n =
            other.buckets_[i].load(std::memory_order_relaxed);
        if (n)
            buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    samples_.fetch_add(
        other.samples_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

void
Log2Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    samples_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

void
Group::addScalar(const std::string &name, const Scalar *s)
{
    scalars_[name] = s;
}

void
Group::addAverage(const std::string &name, const Average *a)
{
    averages_[name] = a;
}

std::string
Group::dump() const
{
    std::ostringstream out;
    for (const auto &[name, s] : scalars_)
        out << name_ << "." << name << " " << s->value() << "\n";
    for (const auto &[name, a] : averages_)
        out << name_ << "." << name << " " << a->mean() << "\n";
    return out.str();
}

std::string
Group::toJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, s] : scalars_) {
        out += csprintf("%s\"%s.%s\":%llu", first ? "" : ",",
                        name_.c_str(), name.c_str(),
                        static_cast<unsigned long long>(s->value()));
        first = false;
    }
    for (const auto &[name, a] : averages_) {
        out += csprintf("%s\"%s.%s\":%.10g", first ? "" : ",",
                        name_.c_str(), name.c_str(), a->mean());
        first = false;
    }
    out += "}";
    return out;
}

} // namespace stats
} // namespace powerchop
