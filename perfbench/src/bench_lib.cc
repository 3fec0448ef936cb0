#include "bench_lib.hh"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "common/clock.hh"
#include "common/hash.hh"

namespace perfbench
{

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
seededPermutation(std::uint64_t seed, std::size_t n)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    SplitMix64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

std::vector<std::size_t>
drawKeys(std::uint64_t seed, std::size_t nKeys, double repeatShare,
         std::size_t window)
{
    // Two streams: the order of fresh keys, and the repeat draws.
    const std::vector<std::size_t> order =
        seededPermutation(seed, nKeys);
    SplitMix64 rng(seed ^ 0x5eed5eed5eed5eedull);
    std::vector<std::size_t> out;
    out.reserve(nKeys + nKeys / 4);
    for (std::size_t k : order) {
        if (!out.empty() && window > 0 && rng.unit() < repeatShare) {
            const std::size_t back =
                rng.below(std::min(window, out.size()));
            out.push_back(out[out.size() - 1 - back]);
        }
        out.push_back(k);
    }
    return out;
}

std::string
resultDigest(const std::vector<std::uint64_t> &keys,
             const std::vector<std::string> &payloads)
{
    std::uint64_t sum = 0;
    char head[24];
    for (std::size_t i = 0; i < keys.size(); ++i) {
        std::snprintf(head, sizeof(head), "%016" PRIx64 ":", keys[i]);
        const std::uint64_t h = powerchop::fnv1a64Continue(
            powerchop::fnv1a64(head), payloads[i].data(),
            payloads[i].size());
        sum += h;
    }
    char out[48];
    std::snprintf(out, sizeof(out), "%zu:%016" PRIx64, keys.size(), sum);
    return out;
}

namespace
{

/** 1-based nearest rank of percentile `pct` among n samples. */
std::size_t
nearestRank(double pct, std::size_t n)
{
    // Tenths of a percent in integers: 0.99 * 1000 is not exact in
    // binary floating point, and a rank must not wobble by one.
    const auto tenths = static_cast<std::uint64_t>(pct * 10 + 0.5);
    std::size_t k = static_cast<std::size_t>((tenths * n + 999) / 1000);
    return std::clamp<std::size_t>(k, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    const std::size_t k = nearestRank(pct, v.size());
    std::nth_element(v.begin(), v.begin() + (k - 1), v.end());
    return v[k - 1];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

Tail
tailQuantile(std::vector<double> v, double maxPct, std::size_t minBeyond)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const double candidates[] = {99.9, 99, 98, 95, 90, 75, 50};
    for (double pct : candidates) {
        if (pct > maxPct)
            continue;
        const std::size_t k = nearestRank(pct, v.size());
        t.pct = pct;
        t.value = v[k - 1];
        t.beyond = v.size() - k;
        if (t.beyond >= minBeyond)
            break;
    }
    return t;
}

const char *
requestClassName(RequestClass c)
{
    switch (c) {
      case RequestClass::GetHit: return "get-hit";
      case RequestClass::GetMiss: return "get-miss";
      case RequestClass::SimHit: return "sim-hit";
      case RequestClass::SimMiss: return "sim-miss";
      case RequestClass::Err: return "err";
      case RequestClass::Busy: return "busy";
      case RequestClass::Transport: return "transport";
      case RequestClass::Count: break;
    }
    return "?";
}

RequestClass
classifyReply(bool isGet, powerchop::ResponseStatus status, bool ioFailed)
{
    using powerchop::ResponseStatus;
    if (ioFailed)
        return RequestClass::Transport;
    switch (status) {
      case ResponseStatus::Hit:
        return isGet ? RequestClass::GetHit : RequestClass::SimHit;
      case ResponseStatus::Miss:
        // GET answers MISS for an uncached key; a SIM never does.
        return isGet ? RequestClass::GetMiss : RequestClass::Err;
      case ResponseStatus::Ok:
        // OK is a SIM that simulated at least one job.
        return isGet ? RequestClass::Err : RequestClass::SimMiss;
      case ResponseStatus::Busy:
        return RequestClass::Busy;
      case ResponseStatus::Err:
        return RequestClass::Err;
    }
    return RequestClass::Err;
}

void
ClassLatencies::add(RequestClass c, double latencyMs)
{
    ms[static_cast<std::size_t>(c)].push_back(latencyMs);
}

void
ClassLatencies::merge(const ClassLatencies &other)
{
    for (std::size_t i = 0; i < ms.size(); ++i)
        ms[i].insert(ms[i].end(), other.ms[i].begin(), other.ms[i].end());
}

const std::vector<double> &
ClassLatencies::of(RequestClass c) const
{
    return ms[static_cast<std::size_t>(c)];
}

std::size_t
ClassLatencies::total() const
{
    std::size_t n = 0;
    for (const auto &v : ms)
        n += v.size();
    return n;
}

std::vector<double>
ClassLatencies::all() const
{
    std::vector<double> out;
    out.reserve(total());
    for (const auto &v : ms)
        out.insert(out.end(), v.begin(), v.end());
    return out;
}

std::int64_t
Tracer::open(const std::string &name, std::int64_t parent,
             std::int64_t rid, int lane)
{
    if (!enabled_)
        return -1;
    const double now = powerchop::monotonicSeconds();
    return add(name, parent, now, now, rid, lane);
}

void
Tracer::close(std::int64_t id)
{
    if (!enabled_ || id < 0)
        return;
    const double now = powerchop::monotonicSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = now;
}

std::int64_t
Tracer::add(const std::string &name, std::int64_t parent, double start,
            double end, std::int64_t rid, int lane)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = parent;
    s.name = name;
    s.start = start;
    s.end = end;
    s.rid = rid;
    s.lane = lane;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<double> self = selfTimes(all);
    double base = all.empty() ? 0 : all.front().start;
    for (const Span &s : all)
        base = std::min(base, s.start);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%" PRId64 ",\"parent\":%" PRId64
                     ",\"rid\":%" PRId64 ",\"self_us\":%.3f}}",
                     i ? ",\n" : "", s.name.c_str(), s.lane,
                     (s.start - base) * 1e6, (s.end - s.start) * 1e6,
                     s.id, s.parent, s.rid, self[i] * 1e6);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

double
unionLength(std::vector<std::pair<double, double>> intervals, double lo,
            double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0;
    double curStart = 0, curEnd = 0;
    bool open = false;
    for (auto [a, b] : intervals) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (open && a <= curEnd) {
            curEnd = std::max(curEnd, b);
            continue;
        }
        if (open)
            total += curEnd - curStart;
        curStart = a;
        curEnd = b;
        open = true;
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

double
spanDuration(const std::vector<Span> &spans, std::int64_t id)
{
    for (const Span &s : spans) {
        if (s.id == id)
            return s.end - s.start;
    }
    return 0;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::int64_t, std::vector<std::pair<double, double>>> kids;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        self[i] = s.end - s.start;
        const auto it = kids.find(s.id);
        if (it != kids.end())
            self[i] -= unionLength(it->second, s.start, s.end);
    }
    return self;
}

double
selfTime(const std::vector<Span> &spans, std::int64_t id)
{
    const std::vector<double> self = selfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].id == id)
            return self[i];
    }
    return 0;
}

unsigned
hostCpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
hostCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" ", colon + 1));
        }
    }
    return "unknown";
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec + ts.tv_nsec * 1e-9;
}

namespace
{

/** Fixed integer work the optimizer cannot drop. */
std::uint64_t
spin(std::uint64_t iterations)
{
    std::uint64_t x = 88172645463325252ull;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

} // namespace

double
spinParallelCeiling(unsigned threads)
{
    // Best of seven for each side: a co-tenant's burst can only make a
    // pass slower, never faster. The parallel passes run back to back
    // after a discarded warm-up, because on a VM a vCPU left idle for
    // even a few milliseconds comes back slowly.
    constexpr std::uint64_t kWork = 20'000'000;
    std::atomic<std::uint64_t> sink{0};
    double single = 1e9, parallel = 1e9;
    for (int round = 0; round < 7; ++round) {
        const double t0 = powerchop::monotonicSeconds();
        sink += spin(kWork);
        single = std::min(single, powerchop::monotonicSeconds() - t0);
    }
    for (int round = 0; round < 8; ++round) {
        const double t0 = powerchop::monotonicSeconds();
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < threads; ++i)
            pool.emplace_back([&] { sink += spin(kWork); });
        for (auto &t : pool)
            t.join();
        if (round > 0)
            parallel = std::min(parallel, powerchop::monotonicSeconds() - t0);
    }
    return threads * single / parallel;
}

CpuTicks
hostCpuTicks()
{
    // cpu user nice system idle iowait irq softirq steal ...
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    CpuTicks t;
    double v = 0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
processPeakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

} // namespace perfbench
