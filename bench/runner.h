#ifndef SMM_BENCH_RUNNER_H_
#define SMM_BENCH_RUNNER_H_

// Scenario-matrix benchmark runner. Each benchmark is a Scenario that
// declares its axes (mechanism, modulus class, dim, participants, dropout
// rate, corrupt-frame rate, dispatch mode, shards, threads) and measures one
// enumerated point at a time; the runner enumerates the cross product,
// collects every point's wall time / throughput / bit-identity verdict into
// a MatrixReport, and serializes the report as one schema-versioned JSON
// artifact. The bench_matrix binary is the one driver (--filter, --repeats,
// --json); every declared axis value runs by default.
//
// Determinism contract: scenarios seed every generator from fixed constants
// and treat the threads axis as the innermost loop, so the 1-thread run of
// each outer-axis combination is always enumerated first and serves as the
// bit-identity reference for the higher thread counts.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/status.h"

namespace smm::bench {

/// Schema version of the bench_matrix JSON artifact. Bump on any
/// shape-incompatible change; bench/bench_matrix_schema.json and
/// bench/check_bench_regression.py key off it.
inline constexpr int kMatrixSchemaVersion = 1;

/// One enumerated point of a scenario's axis cross product. Axes a scenario
/// does not declare keep their neutral defaults here, so every RunRecord
/// carries the full coordinate tuple.
struct ScenarioPoint {
  std::string mechanism;      ///< "smm", "ddg", "cpsgd", or "" (none).
  std::string modulus_class;  ///< "pow2_16", "pow2_32", "prime64", or "".
  uint64_t modulus = 0;       ///< 0 when modulus_class is "" (no modulus).
  size_t dim = 0;
  size_t participants = 0;
  double dropout_rate = 0.0;
  double corrupt_frame_rate = 0.0;
  std::string dispatch = "active";  ///< "active" or "scalar".
  size_t shards = 1;                ///< Shard workers; 1 = unsharded.
  int threads = 1;
};

/// The declared axes of one scenario. Every vector must be non-empty; the
/// runner enumerates the cross product with `threads` innermost (see the
/// determinism contract above). An empty `threads` vector skips the
/// scenario entirely (e.g. the TCP server scenario on a platform without
/// the epoll backend).
struct ScenarioAxes {
  std::vector<std::string> mechanisms{""};
  std::vector<std::pair<std::string, uint64_t>> moduli{{"", 0}};
  std::vector<size_t> dims{0};
  std::vector<size_t> participants{0};
  std::vector<double> dropout_rates{0.0};
  std::vector<double> corrupt_frame_rates{0.0};
  std::vector<std::string> dispatch{"active"};
  std::vector<size_t> shards{1};
  std::vector<int> threads{1};
};

/// One measurement a scenario returns for a point. Most scenarios return a
/// single result per point; simd_kernels returns one per kernel.
struct PointResult {
  std::string label;  ///< Row label, e.g. "encode_smm" or a kernel name.
  double seconds = 0.0;
  /// Work items completed in `seconds` (coordinates, frames, ...); the
  /// runner derives items_per_sec from it.
  double items = 0.0;
  bool bit_identical = true;
  /// Scenario-specific extra metrics, serialized under "metrics".
  std::vector<std::pair<std::string, double>> metrics;
};

/// Knobs shared by every scenario in one matrix run.
struct RunOptions {
  Scale scale = Scale::kDefault;
  /// Best-of-N repeats; 0 = each scenario's per-scale default.
  int repeats = 0;
  bool verbose = true;
};

/// One point's outcome in the report.
struct RunRecord {
  std::string label;
  ScenarioPoint params;
  double seconds = 0.0;
  double items_per_sec = 0.0;
  bool bit_identical = true;
  std::vector<std::pair<std::string, double>> metrics;

  /// Named metric lookup; `fallback` when absent.
  double Metric(const std::string& name, double fallback = 0.0) const;
};

struct ScenarioReport {
  std::string name;
  std::string description;
  /// Stable scenarios (allocation-free best-of-N micro loops) gate CI via
  /// check_bench_regression.py; wall-time scenarios stay informational.
  bool stable = false;
  std::vector<RunRecord> runs;

  bool AllBitIdentical() const;
};

struct MatrixReport {
  Scale scale = Scale::kDefault;
  std::vector<ScenarioReport> scenarios;

  bool AllBitIdentical() const;
  const ScenarioReport* Find(const std::string& name) const;
};

/// One benchmark family. Instances live for one matrix run, so a scenario
/// may cache state across points (canonically: the 1-thread reference
/// output of the current outer-axis combination).
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual const char* name() const = 0;
  virtual const char* description() const = 0;
  /// Stable scenarios gate CI (see ScenarioReport::stable).
  virtual bool stable() const { return false; }
  virtual ScenarioAxes Axes(const RunOptions& options) = 0;
  virtual StatusOr<std::vector<PointResult>> RunPoint(
      const ScenarioPoint& point, const RunOptions& options) = 0;
};

// ---------------------------------------------------------------------------
// Timing helpers — the one best-of-N implementation the sections used to
// hand-roll separately.
// ---------------------------------------------------------------------------

/// Wall seconds of one `body` invocation (steady clock).
double TimeSeconds(const std::function<void()>& body);

/// Best (minimum) wall seconds over `repeats` invocations of `body`;
/// `reset`, when provided, runs untimed before each invocation.
double BestOfN(int repeats, const std::function<void()>& body,
               const std::function<void()>& reset = {});

// ---------------------------------------------------------------------------
// Registry and runner.
// ---------------------------------------------------------------------------

class ScenarioRegistry {
 public:
  static ScenarioRegistry& Global();

  void Register(std::function<std::unique_ptr<Scenario>()> factory);
  /// Fresh instances of every registered scenario, in registration order.
  std::vector<std::unique_ptr<Scenario>> Instantiate() const;

 private:
  std::vector<std::function<std::unique_ptr<Scenario>()>> factories_;
};

/// Registers the full scenario set (defined in scenarios.cc). Idempotent.
void RegisterAllScenarios();

/// Runs every registered scenario whose name contains `filter` (empty
/// matches all) over its enumerated axes. Fails on the first scenario
/// error; bit-identity verdicts are recorded, not fatal — callers decide
/// the exit code from MatrixReport::AllBitIdentical.
StatusOr<MatrixReport> RunMatrix(const std::string& filter,
                                 const RunOptions& options);

/// Serializes `report` as the schema-versioned bench_matrix artifact
/// (validated by bench/bench_matrix_schema.json).
Status WriteMatrixJson(const MatrixReport& report, const std::string& path);

}  // namespace smm::bench

#endif  // SMM_BENCH_RUNNER_H_
