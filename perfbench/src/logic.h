// Pure helpers of the round benchmark: order statistics, span analysis
// (self time, coverage) and the reference modular sum the benchmark checks
// every broadcast against. Kept free of library calls so the checks do not
// share code with what they check; tests/logic_test.cc covers them.
#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// A tail latency and the percentile it was read at.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};

/// Samples a tail percentile must have beyond it.
inline constexpr size_t kTailMinBeyond = 10;

/// The highest percentile of the ladder {50, 75, 90, 95, 99}, capped at
/// `max_percentile`, whose nearest-rank value still has at least
/// `min_beyond` samples strictly above its rank. The cap fixes the
/// percentile, so a faster commit that completes more rounds is not
/// compared at a higher percentile than its parent. Falls back to
/// the median when no ladder step qualifies; {0, 0} for an empty input.
Tail TailPercentile(std::vector<double> samples, double max_percentile,
                    size_t min_beyond = kTailMinBeyond);

/// Round-time statistics of a run's time-ordered round latencies (ms).
struct LatencySummary {
  double p50_ms = 0.0;
  Tail tail;
  /// Rounds per second of round time.
  double rounds_per_s = 0.0;
  /// Windows the rounds were split into, and the rounds in the smallest.
  size_t windows = 0;
  size_t window_rounds = 0;
};

/// Splits `latency_ms`, in the order the rounds ran, into consecutive
/// windows of near-equal size and reports each statistic from its best
/// window: the lowest median, the lowest tail and the highest throughput.
/// A stretch of the run during which the host preempted the benchmark then
/// costs at most the windows it covers. The windows are the most, up to
/// `max_windows`, in which every window still has kTailMinBeyond rounds
/// beyond `tail_percentile`, so every window's tail is read at that
/// percentile; a slower run gets fewer, longer windows, never a lower
/// percentile. One window too short for `tail_percentile` falls down
/// TailPercentile's ladder. An empty input gives an all-zero summary.
LatencySummary BestWindow(const std::vector<double>& latency_ms,
                          size_t max_windows, double tail_percentile);

/// One traced interval. `parent` is the index of the enclosing span in the
/// same vector (-1 for a root); `round` groups the spans of one round.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int round = -1;
  int lane = 0;
};

/// Length of the union of the intervals [start, end) clipped to
/// [lo, hi).
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi);

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children on other threads may overlap
/// each other; the union is subtracted once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Share of [lo, hi) that no span in `spans` whose name passes `is_layer`
/// covers.
template <typename Pred>
double UncoveredFraction(const std::vector<Span>& spans, int64_t lo,
                         int64_t hi, Pred is_layer) {
  if (hi <= lo) return 0.0;
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const Span& s : spans) {
    if (is_layer(s)) intervals.emplace_back(s.start_ns, s.end_ns);
  }
  const int64_t covered = UnionLength(std::move(intervals), lo, hi);
  return 1.0 - static_cast<double>(covered) / static_cast<double>(hi - lo);
}

/// Element-wise sum of `rows` modulo m, the reference every broadcast sum
/// is compared with bit for bit. Entries must already be reduced below m;
/// an empty input or ragged rows give an empty result.
std::vector<uint64_t> ReferenceModSum(
    const std::vector<std::vector<uint64_t>>& rows, uint64_t m);

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
