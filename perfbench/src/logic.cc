#include "logic.h"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

/// (a + b) mod m for a, b < m and any m in [2, 2^64), without overflow.
uint64_t ReferenceAddMod(uint64_t a, uint64_t b, uint64_t m) {
  return a >= m - b ? a - (m - b) : a + b;
}

/// Whether the nearest-rank `pct` percentile of `n` samples has at least
/// `min_beyond` samples above its rank; writes the rank.
bool HasBeyond(size_t n, double pct, size_t min_beyond, size_t* rank) {
  // Nearest rank: the smallest rank r with r / n >= pct / 100.
  *rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return *rank >= 1 && n - *rank >= min_beyond;
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailPercentile(std::vector<double> samples, double max_percentile,
                    size_t min_beyond) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  static constexpr double kLadder[] = {99.0, 95.0, 90.0, 75.0};
  for (double pct : kLadder) {
    size_t rank = 0;
    if (pct <= max_percentile && HasBeyond(n, pct, min_beyond, &rank)) {
      return {pct, samples[rank - 1]};
    }
  }
  return {50.0, Median(std::move(samples))};
}

LatencySummary BestWindow(const std::vector<double>& latency_ms,
                          size_t max_windows, double tail_percentile) {
  if (latency_ms.empty()) return {};
  const size_t n = latency_ms.size();
  size_t windows = std::max<size_t>(max_windows, 1);
  size_t rank = 0;
  while (windows > 1 &&
         !HasBeyond(n / windows, tail_percentile, kTailMinBeyond, &rank)) {
    --windows;
  }
  LatencySummary best;
  best.windows = windows;
  best.window_rounds = n / windows;
  auto next = latency_ms.begin();
  for (size_t w = 0; w < windows; ++w) {
    // The first n % windows windows take one round more.
    const auto size = static_cast<std::ptrdiff_t>(
        n / windows + (w < n % windows ? 1 : 0));
    const std::vector<double> window(next, next + size);
    next += size;
    double total_ms = 0.0;
    for (double ms : window) total_ms += ms;
    const double p50 = Median(window);
    const Tail tail = TailPercentile(window, tail_percentile);
    const double rate =
        1000.0 * static_cast<double>(window.size()) / total_ms;
    if (w == 0 || p50 < best.p50_ms) best.p50_ms = p50;
    if (w == 0 || tail.value < best.tail.value) best.tail = tail;
    if (w == 0 || rate > best.rounds_per_s) best.rounds_per_s = rate;
  }
  return best;
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                    int64_t lo, int64_t hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              UnionLength(std::move(children[i]), s.start_ns, s.end_ns);
  }
  return self;
}

std::vector<uint64_t> ReferenceModSum(
    const std::vector<std::vector<uint64_t>>& rows, uint64_t m) {
  if (rows.empty()) return {};
  const size_t dim = rows.front().size();
  std::vector<uint64_t> sum(dim, 0);
  for (const auto& row : rows) {
    if (row.size() != dim) return {};
    for (size_t j = 0; j < dim; ++j) {
      sum[j] = ReferenceAddMod(sum[j], row[j], m);
    }
  }
  return sum;
}

}  // namespace perfbench
