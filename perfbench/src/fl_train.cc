// fl_train: FederatedTrainer with SMM on the synthetic MNIST-like task —
// the in-process streaming path (no codec, no net) and the utility users
// see. Each iteration creates a trainer (set-up), trains it for kRounds
// rounds and evaluates it; iterations repeat until the run's time is up.
#include <cmath>
#include <memory>

#include "accounting/calibration.h"
#include "bench.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
#include "logic.h"
#include "nn/mlp.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int kRounds = 200;
constexpr int kBatch = 64;
constexpr int kTrain = 8000;
constexpr double kEpsilon = 3.0;
constexpr double kDelta = 1e-5;
constexpr double kGamma = 1024.0;
constexpr double kAccuracyFloor = 0.90;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

smm::Status RunFlTrain(const RunOptions& options, RunResult* result) {
  smm::data::SyntheticImageOptions data_options = smm::data::MnistLikeOptions();
  data_options.num_train = kTrain;
  data_options.num_test = 1000;
  data_options.seed = options.seed;
  SMM_ASSIGN_OR_RETURN(auto split,
                       smm::data::MakeSyntheticImages(data_options));

  smm::fl::FlConfig config;
  config.mechanism = smm::fl::MechanismKind::kSmm;
  config.epsilon = kEpsilon;
  config.delta = kDelta;
  config.expected_batch_size = kBatch;
  config.rounds = kRounds;
  config.gamma = kGamma;
  config.modulus = uint64_t{1} << 16;
  config.learning_rate = 0.015;
  config.num_threads = BenchThreads();
  config.eval_every = 0;  // Final evaluation only.

  // Set-up is one trainer: the model plus FederatedTrainer::Create, which
  // calibrates the noise and builds the mechanism and the pool.
  const auto make_trainer = [&](int iteration)
      -> smm::StatusOr<std::unique_ptr<smm::fl::FederatedTrainer>> {
    smm::nn::Mlp::Options model_options;
    model_options.input_dim = data_options.feature_dim;
    model_options.hidden_dims = {32};
    model_options.num_classes = data_options.num_classes;
    model_options.init_seed = options.seed + static_cast<uint64_t>(iteration);
    SMM_ASSIGN_OR_RETURN(auto model, smm::nn::Mlp::Create(model_options));
    smm::fl::FlConfig iteration_config = config;
    iteration_config.seed = options.seed * 1000 + static_cast<uint64_t>(iteration);
    return smm::fl::FederatedTrainer::Create(std::move(model), split.train,
                                             split.test, iteration_config);
  };
  SetupSampler setup(options.seconds);
  SMM_ASSIGN_OR_RETURN(auto first_trainer,
                       setup.Time([&] { return make_trainer(0); }));

  Tracer tracer(false);
  std::vector<double> train_s, eval_s, accuracy, round_ms, calibrate_s,
      uncovered, traced_rps, untraced_rps;
  double epsilon = 0.0;
  int64_t failed_rounds = 0;
  int64_t overflows = 0;
  const int64_t loop_start = NowNs();
  for (int it = 0; Seconds(NowNs() - loop_start) < options.seconds; ++it) {
    // Extra set-up probes, spread over the run; their trainers are
    // discarded.
    while (setup.Due(Seconds(NowNs() - loop_start))) {
      SMM_RETURN_IF_ERROR(setup.Time([&] { return make_trainer(it); }).status());
    }
    // The traced run alternates traced and untraced iterations; the
    // untraced ones give trace_overhead_frac.
    tracer.set_enabled(options.trace && it % 2 == 0);
    const int64_t it_start = NowNs();
    const int it_span = tracer.Begin("iteration", it, -1, -1);
    std::unique_ptr<smm::fl::FederatedTrainer> trainer;
    if (it == 0) {
      trainer = std::move(first_trainer);
    } else {
      ScopedSpan span(tracer, "fl.create", it, -1, it_span);
      SMM_ASSIGN_OR_RETURN(trainer, setup.Time([&] { return make_trainer(it); }));
    }

    // The trainer's per-round hook runs once before each round's
    // aggregation; consecutive calls bracket one whole round (sampling,
    // gradients, encode, aggregate, decode, update). It never injects a
    // fault: it always returns OK.
    std::vector<int64_t> round_starts;
    round_starts.reserve(kRounds);
    trainer->SetRoundFaultInjectorForTest([&round_starts](int) {
      round_starts.push_back(NowNs());
      return smm::OkStatus();
    });
    int64_t t = NowNs();
    smm::StatusOr<smm::fl::TrainingResult> trained =
        smm::InternalError("unset");
    {
      ScopedSpan span(tracer, "fl.train", it, -1, it_span);
      trained = trainer->Train();
    }
    const int64_t train_ns = NowNs() - t;
    result->attempted += kRounds;
    if (!trained.ok()) {
      result->failed += kRounds;
      result->errors.push_back("iteration " + std::to_string(it) + ": " +
                               trained.status().ToString());
      tracer.End(it_span);
      continue;
    }
    train_s.push_back(Seconds(train_ns));
    (tracer.enabled() ? traced_rps : untraced_rps)
        .push_back(static_cast<double>(kRounds) / Seconds(train_ns));
    for (size_t r = 1; r < round_starts.size(); ++r) {
      round_ms.push_back(
          static_cast<double>(round_starts[r] - round_starts[r - 1]) * 1e-6);
    }

    t = NowNs();
    smm::fl::EvalMetrics eval;
    {
      ScopedSpan span(tracer, "fl.eval", it, -1, it_span);
      eval = trainer->EvaluateMetrics();
    }
    eval_s.push_back(Seconds(NowNs() - t));
    tracer.End(it_span);
    if (tracer.enabled()) {
      const std::vector<Span> spans = tracer.Snapshot();
      uncovered.push_back(UncoveredFraction(
          spans, it_start, NowNs(),
          [it](const Span& s) { return s.round == it && s.name != "iteration"; }));
    }

    // The same calibration Create runs, to cross-check the reported
    // guarantee; timed for accounting.calibrate_s.
    t = NowNs();
    SMM_ASSIGN_OR_RETURN(
        auto calibration,
        smm::accounting::CalibrateSmm(
            kGamma * kGamma, static_cast<double>(kBatch) / kTrain, kRounds,
            kEpsilon, kDelta));
    calibrate_s.push_back(Seconds(NowNs() - t));

    const std::string tag = "iteration " + std::to_string(it) + ": ";
    const size_t errors_before = result->errors.size();
    result->Check(trained->guarantee.epsilon <= kEpsilon * (1.0 + 1e-9),
                  tag + "reported epsilon exceeds the target");
    result->Check(trained->guarantee.epsilon ==
                      calibration.guarantee.epsilon,
                  tag + "reported epsilon differs from CalibrateSmm's");
    result->Check(trained->final_accuracy >= kAccuracyFloor,
                  tag + "accuracy " + std::to_string(trained->final_accuracy) +
                      " is below the floor");
    result->Check(eval.accuracy == trained->final_accuracy,
                  tag + "EvaluateMetrics disagrees with Train's accuracy");
    result->Check(trained->failed_rounds == 0,
                  tag + "rounds failed inside Train");
    result->Check(round_starts.size() == static_cast<size_t>(kRounds),
                  tag + "the round hook did not run once per round");
    // A failed check fails the iteration's rounds; otherwise only the
    // rounds Train itself reports as failed count.
    result->failed += result->errors.size() > errors_before
                          ? kRounds
                          : trained->failed_rounds;
    accuracy.push_back(trained->final_accuracy);
    epsilon = trained->guarantee.epsilon;
    failed_rounds += trained->failed_rounds;
    overflows += trained->total_overflows;
  }
  if (accuracy.empty()) return smm::InternalError("no iteration completed");
  while (setup.Short()) {
    SMM_RETURN_IF_ERROR(setup.Time([&] { return make_trainer(0); }).status());
  }

  auto& v = result->values;
  const LatencySummary summary =
      BestWindow(round_ms, kMaxWindows, kTailPercentile);
  v["round_p50_ms"] = summary.p50_ms;
  v["round_tail_ms"] = summary.tail.value;
  v["rounds_per_s"] = summary.rounds_per_s;
  v["setup_s"] = setup.MedianSeconds();
  // In-process: what one participant hands to the aggregator per round is
  // its Z_m vector, 8 bytes per padded coordinate (2,410 -> 4,096).
  v["uplink_bytes_per_client"] = 4096.0 * 8.0;
  // The trainer does not expose its decoded sums: a fixed placeholder
  // keeps the key present (see perfbench/README.md).
  v["sum_rmse"] = 1.0;
  v["test_accuracy"] = Median(accuracy);
  v["epsilon"] = epsilon;
  v["peak_rss_mb"] = PeakRssMb();
  result->notes.push_back(
      "round_tail_ms is p" +
      std::to_string(static_cast<int>(summary.tail.percentile)) + " of " +
      std::to_string(summary.window_rounds) +
      " rounds; round times are the best of " +
      std::to_string(summary.windows) + " windows of " +
      std::to_string(round_ms.size()) + " rounds over " +
      std::to_string(accuracy.size()) + " trainings");

  v["accounting.calibrate_s"] = Median(calibrate_s);
  v["fl.create_s"] = setup.MedianSeconds();
  v["fl.train_s"] = Median(train_s);
  v["fl.eval_s"] = Median(eval_s);
  v["fl.failed_rounds"] = static_cast<double>(failed_rounds);
  v["fl.total_overflows"] = static_cast<double>(overflows);
  v["mechanisms.overflows"] = static_cast<double>(overflows);
  if (options.trace) {
    v["unaccounted_frac"] = Median(uncovered);
    v["trace_overhead_frac"] =
        (Median(untraced_rps) - Median(traced_rps)) / Median(untraced_rps);
    if (!options.trace_out.empty()) {
      result->Check(tracer.WriteJsonLines(options.trace_out),
                    "could not write " + options.trace_out);
    }
  }
  return smm::OkStatus();
}

}  // namespace perfbench
