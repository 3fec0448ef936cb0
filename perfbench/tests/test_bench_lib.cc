/**
 * @file
 * Tests of the benchmark's own helpers: the tail-percentile rule,
 * request-class bucketing, self time with overlapping children,
 * digest order-independence and seeded key draws.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bench_lib.hh"

using namespace perfbench;
using powerchop::ResponseStatus;

namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(static_cast<double>(i));
    return v;
}

} // namespace

TEST(TailRule, KeepsTenSamplesBeyondTheReportedPercentile)
{
    // 1000 samples: p99 sits at rank 990 with exactly 10 beyond.
    Tail t = tailQuantile(oneTo(1000), 99);
    EXPECT_EQ(t.pct, 99);
    EXPECT_EQ(t.value, 990);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_EQ(t.samples, 1000u);

    // 999 samples leave only 9 beyond p99, so the rule steps down.
    t = tailQuantile(oneTo(999), 99);
    EXPECT_EQ(t.pct, 98);
    EXPECT_GE(t.beyond, 10u);

    // 300 samples: p99.9 is not considered when the cap is p90.
    t = tailQuantile(oneTo(300), 90);
    EXPECT_EQ(t.pct, 90);
    EXPECT_EQ(t.value, 270);
    EXPECT_EQ(t.beyond, 30u);
}

TEST(TailRule, OrderFreeAndFallsBackToMedian)
{
    std::vector<double> v = oneTo(1000);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(tailQuantile(v, 99).value, 990);

    const Tail small = tailQuantile(oneTo(12), 99);
    EXPECT_EQ(small.pct, 50);
    EXPECT_EQ(small.value, 6);
    EXPECT_EQ(tailQuantile({}, 99).samples, 0u);
}

TEST(TailRule, NearestRankPercentileAndMedian)
{
    EXPECT_EQ(percentile(oneTo(100), 90), 90);
    EXPECT_EQ(percentile(oneTo(10), 50), 5);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({}), 0);
}

TEST(RequestClasses, BucketsEveryReplyKind)
{
    EXPECT_EQ(classifyReply(true, ResponseStatus::Hit, false),
              RequestClass::GetHit);
    EXPECT_EQ(classifyReply(true, ResponseStatus::Miss, false),
              RequestClass::GetMiss);
    EXPECT_EQ(classifyReply(false, ResponseStatus::Hit, false),
              RequestClass::SimHit);
    EXPECT_EQ(classifyReply(false, ResponseStatus::Ok, false),
              RequestClass::SimMiss);
    EXPECT_EQ(classifyReply(false, ResponseStatus::Err, false),
              RequestClass::Err);
    EXPECT_EQ(classifyReply(true, ResponseStatus::Busy, false),
              RequestClass::Busy);
    EXPECT_EQ(classifyReply(false, ResponseStatus::Busy, false),
              RequestClass::Busy);
    // A transport failure wins over whatever status was left behind.
    EXPECT_EQ(classifyReply(false, ResponseStatus::Hit, true),
              RequestClass::Transport);
    EXPECT_STREQ(requestClassName(RequestClass::SimMiss), "sim-miss");
}

TEST(RequestClasses, LatenciesStayInTheirBucket)
{
    ClassLatencies a, b;
    a.add(RequestClass::GetHit, 0.02);
    a.add(RequestClass::GetHit, 0.03);
    a.add(RequestClass::SimMiss, 12.0);
    b.add(RequestClass::Busy, 0.1);
    b.add(RequestClass::SimHit, 0.5);
    a.merge(b);
    EXPECT_EQ(a.of(RequestClass::GetHit).size(), 2u);
    EXPECT_EQ(a.of(RequestClass::SimMiss).size(), 1u);
    EXPECT_EQ(a.of(RequestClass::Busy).size(), 1u);
    EXPECT_EQ(a.of(RequestClass::SimHit).size(), 1u);
    EXPECT_EQ(a.of(RequestClass::Err).size(), 0u);
    EXPECT_EQ(a.total(), 5u);
    EXPECT_EQ(a.all().size(), 5u);
}

TEST(SelfTime, OverlappingParallelChildrenCountOnce)
{
    // A 10 s batch whose workers overlap: [1,5] [2,6] [2,3] on three
    // lanes plus a disjoint [7,8]. Their union is 6 s.
    std::vector<Span> spans(6);
    spans[0] = {0, -1, "batch", 0, 10};
    spans[1] = {1, 0, "job", 1, 5, 1, 1};
    spans[2] = {2, 0, "job", 2, 6, 2, 2};
    spans[3] = {3, 0, "job", 2, 3, 3, 3};
    spans[4] = {4, 0, "job", 7, 8, 4, 1};
    // A grandchild does not reduce the batch's own self time twice.
    spans[5] = {5, 1, "sim", 1, 4};
    EXPECT_DOUBLE_EQ(selfTime(spans, 0), 4.0);
    EXPECT_DOUBLE_EQ(selfTime(spans, 1), 1.0);
    EXPECT_DOUBLE_EQ(selfTime(spans, 4), 1.0);
    EXPECT_DOUBLE_EQ(spanDuration(spans, 2), 4.0);
    EXPECT_DOUBLE_EQ(selfTimes(spans)[5], 3.0);
    EXPECT_DOUBLE_EQ(unionLength({{1, 5}, {2, 6}, {2, 3}, {7, 8}}, 0, 10),
                     6.0);
    EXPECT_DOUBLE_EQ(unionLength({{-1, 3}, {9, 12}}, 0, 10), 4.0);
}

TEST(SelfTime, TracerRecordsOnlyWhenEnabled)
{
    Tracer off(false);
    EXPECT_EQ(off.open("x", -1), -1);
    EXPECT_TRUE(off.spans().empty());

    Tracer on(true);
    const std::int64_t root = on.add("root", -1, 0, 4);
    on.add("a", root, 0, 1);
    on.add("b", root, 1, 3);
    EXPECT_DOUBLE_EQ(selfTime(on.spans(), root), 1.0);
}

TEST(Digest, IndependentOfOrderButNotOfContent)
{
    const std::vector<std::uint64_t> keys = {1, 2, 3};
    const std::vector<std::string> payloads = {"{a}", "{b}", "{c}"};
    const std::string d = resultDigest(keys, payloads);
    EXPECT_EQ(d, resultDigest({3, 1, 2}, {"{c}", "{a}", "{b}"}));
    EXPECT_EQ(d.substr(0, 2), "3:");
    // Swapping payloads between keys, or changing one byte, differs.
    EXPECT_NE(d, resultDigest(keys, {"{b}", "{a}", "{c}"}));
    EXPECT_NE(d, resultDigest(keys, {"{a}", "{b}", "{d}"}));
    EXPECT_NE(d, resultDigest({1, 2}, {"{a}", "{b}"}));
}

TEST(KeyDraws, RepeatForOneSeedAndDifferAcrossSeeds)
{
    const auto a = drawKeys(7, 145, 0.15, 3);
    EXPECT_EQ(a, drawKeys(7, 145, 0.15, 3));
    EXPECT_NE(a, drawKeys(8, 145, 0.15, 3));

    // Every key appears; the extra slots repeat a recent key.
    std::set<std::size_t> seen(a.begin(), a.end());
    EXPECT_EQ(seen.size(), 145u);
    EXPECT_GT(a.size(), 145u);
    EXPECT_LT(a.size(), 145u + 50u);

    // No repeats without a window or a share.
    EXPECT_EQ(drawKeys(7, 145, 0.15, 0).size(), 145u);
    EXPECT_EQ(drawKeys(7, 145, 0.0, 3).size(), 145u);

    const auto p = seededPermutation(11, 50);
    EXPECT_EQ(p, seededPermutation(11, 50));
    EXPECT_NE(p, seededPermutation(12, 50));
    EXPECT_EQ(std::set<std::size_t>(p.begin(), p.end()).size(), 50u);
}
