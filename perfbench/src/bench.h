// The benchmark's workloads and the result every one of them reports.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed check.
  std::vector<std::string> errors;
  /// Metric values by name; units live with the metric lists in main.cc.
  std::map<std::string, double> values;
  /// Printed next to the metrics but not part of the JSON result.
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Threads of every pool the benchmark creates, and client connections per
/// round: one fewer than the host's hardware threads, at most 3. The spare
/// core keeps the OS and the server's event loop from preempting a pool
/// thread; with all four cores of a 4-core host busy, run-to-run spread
/// was about three times larger.
inline int BenchThreads() {
  return std::clamp(smm::ThreadPool::HardwareThreads() - 1, 1, 3);
}

/// Every workload reads its round times from the best of at most this many
/// consecutive windows of its rounds, and its tail at this percentile (see
/// BestWindow). A round waits for its slowest thread, so a host that
/// preempts one of the benchmark's threads stretches the tail more than
/// the median; p75 and windows keep such stretches from deciding a run.
constexpr size_t kMaxWindows = 4;
constexpr double kTailPercentile = 75.0;

/// Times repeated set-ups spread evenly over a run, so setup_s (their
/// median) samples the same machine conditions as the run's rounds rather
/// than one moment at its start. The first set-up sizes the plan: as many
/// as fit in a tenth of the run, at least 3 and at most 60.
class SetupSampler {
 public:
  explicit SetupSampler(double run_seconds) : run_seconds_(run_seconds) {}

  /// Runs `build` (returning StatusOr<T>) and records its duration. The
  /// result is returned, so a discarded probe is torn down untimed.
  template <typename Fn>
  auto Time(Fn build) -> decltype(build()) {
    const auto start = std::chrono::steady_clock::now();
    auto built = build();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    if (built.ok()) {
      if (seconds_.empty()) {
        planned_ = std::clamp(static_cast<int>(0.1 * run_seconds_ / s), 3, 60);
      }
      seconds_.push_back(s);
    }
    return built;
  }

  /// Whether a probe is due `elapsed_s` into the run's measured loop.
  bool Due(double elapsed_s) const {
    return static_cast<double>(seconds_.size()) <
           1.0 + std::floor(planned_ * elapsed_s / run_seconds_);
  }
  /// Whether fewer set-ups than planned have been timed.
  bool Short() const { return static_cast<int>(seconds_.size()) < planned_; }

  double MedianSeconds() const {
    std::vector<double> s = seconds_;
    std::sort(s.begin(), s.end());
    return s.empty() ? 0.0 : s[s.size() / 2];
  }

 private:
  double run_seconds_;
  int planned_ = 3;
  std::vector<double> seconds_;
};

smm::Status RunRoundWide(const RunOptions& options, RunResult* result);
smm::Status RunRoundMasked(const RunOptions& options, RunResult* result);
smm::Status RunFlTrain(const RunOptions& options, RunResult* result);

/// Peak resident set of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
