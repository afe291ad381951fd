#include "logic.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(TailPercentileTest, PicksHighestStepWithTenBeyond) {
  // 100 samples: p90 is rank 90 with exactly 10 above; p95 has only 5.
  const Tail tail = TailPercentile(Iota(100), 99.0);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 90.0);
}

TEST(TailPercentileTest, OneSampleShortDropsAStep) {
  // 99 samples: p90 (rank 90) has 9 above, so p75 (rank 75, 24 above).
  const Tail tail = TailPercentile(Iota(99), 99.0);
  EXPECT_EQ(tail.percentile, 75.0);
  EXPECT_EQ(tail.value, 75.0);
}

TEST(TailPercentileTest, CapFixesThePercentile) {
  // 1000 samples qualify for p99, but the workload caps the tail at p90.
  const Tail tail = TailPercentile(Iota(1000), 90.0);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.value, 900.0);
  EXPECT_EQ(TailPercentile(Iota(1000), 99.0).percentile, 99.0);
}

TEST(TailPercentileTest, UnsortedInputAndFallback) {
  std::vector<double> v = Iota(40);
  std::reverse(v.begin(), v.end());
  const Tail tail = TailPercentile(v, 99.0);
  EXPECT_EQ(tail.percentile, 75.0);  // Rank 30, 10 above.
  EXPECT_EQ(tail.value, 30.0);
  // Too few samples for any step: the median.
  const Tail small = TailPercentile(Iota(5), 99.0);
  EXPECT_EQ(small.percentile, 50.0);
  EXPECT_EQ(small.value, 3.0);
  EXPECT_EQ(TailPercentile({}, 99.0).value, 0.0);
}

TEST(BestWindowTest, OneWindowIsTheWholeRun) {
  const LatencySummary s = BestWindow(Iota(100), 1, 90.0);
  EXPECT_EQ(s.windows, 1u);
  EXPECT_EQ(s.window_rounds, 100u);
  EXPECT_EQ(s.p50_ms, 50.5);
  EXPECT_EQ(s.tail.percentile, 90.0);
  EXPECT_EQ(s.tail.value, 90.0);
  EXPECT_DOUBLE_EQ(s.rounds_per_s, 1000.0 * 100 / 5050.0);
}

TEST(BestWindowTest, SkipsASlowStretch) {
  // 40 rounds at 10 ms, then 40 stretched to 30 ms by a busy host: the
  // second window is the slow stretch and every statistic comes from the
  // first.
  std::vector<double> ms(80, 10.0);
  for (size_t i = 40; i < 80; ++i) ms[i] = 30.0;
  ms[5] = 20.0;  // One slow round inside the fast window.
  const LatencySummary s = BestWindow(ms, 2, 75.0);
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.window_rounds, 40u);
  EXPECT_EQ(s.p50_ms, 10.0);
  EXPECT_EQ(s.tail.percentile, 75.0);
  EXPECT_EQ(s.tail.value, 10.0);
  EXPECT_DOUBLE_EQ(s.rounds_per_s, 1000.0 * 40 / (39 * 10.0 + 20.0));
}

TEST(BestWindowTest, StatisticsPickTheirWindowsIndependently) {
  // Window 1: 21 rounds at 5 ms and 19 at 50 ms (median 5, p75 50, slow on
  // the whole). Window 2: 40 rounds at 6 ms.
  std::vector<double> ms(80, 6.0);
  for (size_t i = 0; i < 40; ++i) ms[i] = i < 21 ? 5.0 : 50.0;
  const LatencySummary s = BestWindow(ms, 2, 75.0);
  EXPECT_EQ(s.p50_ms, 5.0);
  EXPECT_EQ(s.tail.value, 6.0);
  EXPECT_DOUBLE_EQ(s.rounds_per_s, 1000.0 * 40 / 240.0);
}

TEST(BestWindowTest, FewerWindowsKeepThePercentile) {
  // 100 rounds: 4 windows of 25 leave 6 beyond p75, 3 of 33 leave 8, so
  // 2 windows of 50 (12 beyond rank 38).
  LatencySummary s = BestWindow(Iota(100), 4, 75.0);
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.window_rounds, 50u);
  EXPECT_EQ(s.tail.percentile, 75.0);
  EXPECT_EQ(s.tail.value, 38.0);
  EXPECT_EQ(s.p50_ms, 25.5);
  // 81 rounds in windows of 41 and 40: each has 10 beyond p75, and the
  // first window's extra round moves its rank (31 of 41).
  s = BestWindow(Iota(81), 4, 75.0);
  EXPECT_EQ(s.windows, 2u);
  EXPECT_EQ(s.window_rounds, 40u);
  EXPECT_EQ(s.tail.value, 31.0);
  // 79 rounds would leave a window of 39 with 9 beyond: one window.
  EXPECT_EQ(BestWindow(Iota(79), 4, 75.0).windows, 1u);
}

TEST(BestWindowTest, ShortRunFallsDownTheLadder) {
  // 30 rounds cannot leave 10 beyond p75 even as one window: the median.
  const LatencySummary s = BestWindow(Iota(30), 4, 75.0);
  EXPECT_EQ(s.windows, 1u);
  EXPECT_EQ(s.tail.percentile, 50.0);
  EXPECT_EQ(s.tail.value, 15.5);
  const LatencySummary empty = BestWindow({}, 4, 75.0);
  EXPECT_EQ(empty.windows, 0u);
  EXPECT_EQ(empty.p50_ms, 0.0);
  EXPECT_EQ(empty.rounds_per_s, 0.0);
}

TEST(UnionLengthTest, MergesOverlapsAndClips) {
  EXPECT_EQ(UnionLength({{0, 10}, {5, 15}, {20, 30}}, 0, 100), 25);
  EXPECT_EQ(UnionLength({{0, 10}, {10, 20}}, 0, 100), 20);
  EXPECT_EQ(UnionLength({{0, 10}, {5, 15}}, 8, 12), 4);
  EXPECT_EQ(UnionLength({{20, 30}}, 0, 10), 0);
  EXPECT_EQ(UnionLength({}, 0, 10), 0);
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int parent) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimesTest, SubtractsChildrenOnce) {
  // round [0, 100) with two lanes running in parallel, each with leaves.
  const std::vector<Span> spans = {
      MakeSpan("round", 0, 100, -1),            // 0
      MakeSpan("lane", 10, 80, 0),              // 1
      MakeSpan("lane", 20, 90, 0),              // 2
      MakeSpan("mechanisms.encode", 10, 40, 1),  // 3
      MakeSpan("net.send", 40, 50, 1),          // 4
      MakeSpan("mechanisms.encode", 20, 60, 2),  // 5
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 80);  // Lanes cover [10, 90).
  EXPECT_EQ(self[1], 70 - 40);
  EXPECT_EQ(self[2], 70 - 40);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 40);
}

TEST(UncoveredFractionTest, CountsGapsNoLayerCovers) {
  const std::vector<Span> spans = {
      MakeSpan("round", 0, 100, -1),
      MakeSpan("lane", 0, 100, 0),
      MakeSpan("mechanisms.encode", 0, 40, 1),
      MakeSpan("net.send", 30, 70, 1),
  };
  const auto is_layer = [](const Span& s) {
    return s.name.find('.') != std::string::npos;
  };
  EXPECT_DOUBLE_EQ(UncoveredFraction(spans, 0, 100, is_layer), 0.30);
  EXPECT_DOUBLE_EQ(UncoveredFraction(spans, 0, 50, is_layer), 0.0);
}

TEST(ReferenceModSumTest, SmallModulus) {
  const std::vector<std::vector<uint64_t>> rows = {{1, 2, 3}, {4, 5, 6},
                                                    {6, 0, 1}};
  EXPECT_EQ(ReferenceModSum(rows, 7),
            (std::vector<uint64_t>{(1 + 4 + 6) % 7, (2 + 5 + 0) % 7,
                                   (3 + 6 + 1) % 7}));
}

TEST(ReferenceModSumTest, NoOverflowNearTwoToThe64) {
  const uint64_t m = UINT64_MAX - 58;  // 2^64 - 59
  const std::vector<std::vector<uint64_t>> rows = {
      {m - 1, m - 1}, {m - 1, 1}, {5, m - 2}};
  // Reference through 128-bit arithmetic.
  std::vector<uint64_t> want(2);
  for (size_t j = 0; j < 2; ++j) {
    unsigned __int128 s = 0;
    for (const auto& r : rows) s += r[j];
    want[j] = static_cast<uint64_t>(s % m);
  }
  EXPECT_EQ(ReferenceModSum(rows, m), want);
}

TEST(ReferenceModSumTest, RaggedOrEmptyGivesEmpty) {
  EXPECT_TRUE(ReferenceModSum({}, 16).empty());
  EXPECT_TRUE(ReferenceModSum({{1, 2}, {3}}, 16).empty());
}

}  // namespace
}  // namespace perfbench
