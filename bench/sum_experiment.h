#ifndef SMM_BENCH_SUM_EXPERIMENT_H_
#define SMM_BENCH_SUM_EXPERIMENT_H_

#include <cmath>
#include <string>
#include <vector>

#include "accounting/binomial_accountant.h"
#include "accounting/calibration.h"
#include "accounting/mechanism_rdp.h"
#include "common/parallel.h"
#include "common/random.h"
#include "mechanisms/baseline_mechanisms.h"
#include "mechanisms/conditional_rounding.h"
#include "mechanisms/dgm_mechanism.h"
#include "mechanisms/distributed_mechanism.h"
#include "mechanisms/smm_mechanism.h"
#include "secagg/secure_aggregator.h"

namespace smm::bench {

/// One distributed-sum estimation run (Section 6.1): calibrates the chosen
/// method to (epsilon, delta), runs it over the inputs, and reports the
/// per-dimension MSE. Inputs are unit-sphere points (Delta_2 = radius = 1).
/// Returns a negative value if calibration fails (plotted as "off chart",
/// which is how the paper renders cpSGD).
///
/// Every integer-mechanism run goes through the wire path of
/// RunDistributedSum — encode -> ContributionMsg frame -> AggregationSession
/// -> streaming sum — so the harnesses exercise the same message flow a
/// production server would, with resident memory independent of the
/// participant count.
struct SumExperimentConfig {
  double gamma = 4.0;
  uint64_t modulus = 1 << 10;
  double epsilon = 1.0;
  double delta = 1e-5;
  double radius = 1.0;
  uint64_t rotation_seed = 99;
  /// Optional thread pool for the encode/aggregate pipeline (not owned;
  /// nullptr = sequential). MSE results are thread-count invariant.
  ThreadPool* pool = nullptr;
};

inline double RunSumSmm(const std::vector<std::vector<double>>& inputs,
                        const SumExperimentConfig& cfg, RandomGenerator& rng) {
  const size_t d = inputs[0].size();
  const int n = static_cast<int>(inputs.size());
  const double c = cfg.gamma * cfg.gamma * cfg.radius * cfg.radius;
  auto calib =
      accounting::CalibrateSmm(c, 1.0, 1, cfg.epsilon, cfg.delta);
  if (!calib.ok()) return -1.0;
  mechanisms::SmmMechanism::Options o;
  o.dim = d;
  o.gamma = cfg.gamma;
  o.c = c;
  o.delta_inf = accounting::SmmMaxDeltaInf(calib->noise_parameter,
                                           calib->guarantee.best_alpha);
  o.lambda = calib->noise_parameter / n;
  o.modulus = cfg.modulus;
  o.rotation_seed = cfg.rotation_seed;
  auto mech = mechanisms::SmmMechanism::Create(o);
  if (!mech.ok()) return -1.0;
  secagg::IdealAggregator agg;
  auto estimate = mechanisms::RunDistributedSum(**mech, agg, inputs, rng, cfg.pool);
  if (!estimate.ok()) return -1.0;
  auto mse = mechanisms::MeanSquaredErrorPerDimension(*estimate, inputs);
  return mse.ok() ? *mse : -1.0;
}

inline double RunSumDgm(const std::vector<std::vector<double>>& inputs,
                        const SumExperimentConfig& cfg, RandomGenerator& rng) {
  const size_t d = inputs[0].size();
  const int n = static_cast<int>(inputs.size());
  const double c = cfg.gamma * cfg.gamma * cfg.radius * cfg.radius;
  const double l1 = std::sqrt(static_cast<double>(d)) * cfg.gamma;
  auto calib = accounting::CalibrateDgm(n, c, l1, static_cast<int>(d),
                                        /*delta_inf=*/0.0, 1.0, 1,
                                        cfg.epsilon, cfg.delta);
  if (!calib.ok()) return -1.0;
  mechanisms::DgmMechanism::Options o;
  o.dim = d;
  o.gamma = cfg.gamma;
  o.c = c;
  o.delta_inf = accounting::SmmMaxDeltaInf(
      n * calib->noise_parameter * calib->noise_parameter / 2.0,
      calib->guarantee.best_alpha);
  o.sigma = calib->noise_parameter;
  o.modulus = cfg.modulus;
  o.rotation_seed = cfg.rotation_seed;
  auto mech = mechanisms::DgmMechanism::Create(o);
  if (!mech.ok()) return -1.0;
  secagg::IdealAggregator agg;
  auto estimate = mechanisms::RunDistributedSum(**mech, agg, inputs, rng, cfg.pool);
  if (!estimate.ok()) return -1.0;
  auto mse = mechanisms::MeanSquaredErrorPerDimension(*estimate, inputs);
  return mse.ok() ? *mse : -1.0;
}

inline double RunSumDdg(const std::vector<std::vector<double>>& inputs,
                        const SumExperimentConfig& cfg, RandomGenerator& rng) {
  const size_t d = inputs[0].size();
  const int n = static_cast<int>(inputs.size());
  const double bound = mechanisms::ConditionalRoundingNormBound(
      cfg.gamma, cfg.radius, d, std::exp(-0.5));
  const double l2sq = bound * bound;
  const double l1 =
      std::min(std::sqrt(static_cast<double>(d)) * bound, l2sq);
  auto calib = accounting::CalibrateDdg(n, l2sq, l1, static_cast<int>(d),
                                        1.0, 1, cfg.epsilon, cfg.delta);
  if (!calib.ok()) return -1.0;
  mechanisms::DdgMechanism::Options o;
  o.dim = d;
  o.gamma = cfg.gamma;
  o.l2_bound = cfg.radius;
  o.sigma = calib->noise_parameter;
  o.modulus = cfg.modulus;
  o.rotation_seed = cfg.rotation_seed;
  auto mech = mechanisms::DdgMechanism::Create(o);
  if (!mech.ok()) return -1.0;
  secagg::IdealAggregator agg;
  auto estimate = mechanisms::RunDistributedSum(**mech, agg, inputs, rng, cfg.pool);
  if (!estimate.ok()) return -1.0;
  auto mse = mechanisms::MeanSquaredErrorPerDimension(*estimate, inputs);
  return mse.ok() ? *mse : -1.0;
}

inline double RunSumAgarwalSkellam(
    const std::vector<std::vector<double>>& inputs,
    const SumExperimentConfig& cfg, RandomGenerator& rng) {
  const size_t d = inputs[0].size();
  const int n = static_cast<int>(inputs.size());
  const double bound = mechanisms::ConditionalRoundingNormBound(
      cfg.gamma, cfg.radius, d, std::exp(-0.5));
  const double l2sq = bound * bound;
  const double l1 =
      std::min(std::sqrt(static_cast<double>(d)) * bound, l2sq);
  auto calib = accounting::CalibrateSkellamAgarwal(l2sq, l1, 1.0, 1,
                                                   cfg.epsilon, cfg.delta);
  if (!calib.ok()) return -1.0;
  mechanisms::AgarwalSkellamMechanism::Options o;
  o.dim = d;
  o.gamma = cfg.gamma;
  o.l2_bound = cfg.radius;
  o.lambda = calib->noise_parameter / n;
  o.modulus = cfg.modulus;
  o.rotation_seed = cfg.rotation_seed;
  auto mech = mechanisms::AgarwalSkellamMechanism::Create(o);
  if (!mech.ok()) return -1.0;
  secagg::IdealAggregator agg;
  auto estimate = mechanisms::RunDistributedSum(**mech, agg, inputs, rng, cfg.pool);
  if (!estimate.ok()) return -1.0;
  auto mse = mechanisms::MeanSquaredErrorPerDimension(*estimate, inputs);
  return mse.ok() ? *mse : -1.0;
}

inline double RunSumCpSgd(const std::vector<std::vector<double>>& inputs,
                          const SumExperimentConfig& cfg,
                          RandomGenerator& rng) {
  const size_t d = inputs[0].size();
  const int n = static_cast<int>(inputs.size());
  const double dd = static_cast<double>(d);
  accounting::BinomialMechanismParams p;
  p.l2 = cfg.gamma * cfg.radius + std::sqrt(dd);
  p.l1 = std::sqrt(dd) * p.l2;
  p.linf = cfg.gamma * cfg.radius + 1.0;
  p.dimension = static_cast<int>(d);
  auto trials = accounting::CalibrateBinomialTrials(p, 1, cfg.epsilon,
                                                    cfg.delta);
  if (!trials.ok()) return -1.0;
  mechanisms::CpSgdMechanism::Options o;
  o.dim = d;
  o.gamma = cfg.gamma;
  o.l2_bound = cfg.radius;
  o.binomial_trials =
      static_cast<int64_t>(std::ceil(*trials / static_cast<double>(n)));
  // cpSGD needs an even count; rounding up only adds noise, so the
  // calibrated epsilon still holds.
  o.binomial_trials += o.binomial_trials % 2;
  o.modulus = cfg.modulus;
  o.rotation_seed = cfg.rotation_seed;
  auto mech = mechanisms::CpSgdMechanism::Create(o);
  if (!mech.ok()) return -1.0;
  secagg::IdealAggregator agg;
  auto estimate = mechanisms::RunDistributedSum(**mech, agg, inputs, rng, cfg.pool);
  if (!estimate.ok()) return -1.0;
  auto mse = mechanisms::MeanSquaredErrorPerDimension(*estimate, inputs);
  return mse.ok() ? *mse : -1.0;
}

inline double RunSumGaussian(const std::vector<std::vector<double>>& inputs,
                             const SumExperimentConfig& cfg,
                             RandomGenerator& rng) {
  auto calib = accounting::CalibrateGaussian(cfg.radius, 1.0, 1, cfg.epsilon,
                                             cfg.delta);
  if (!calib.ok()) return -1.0;
  mechanisms::CentralGaussianBaseline::Options o;
  o.sigma = calib->noise_parameter;
  o.l2_bound = cfg.radius;
  mechanisms::CentralGaussianBaseline baseline(o);
  auto estimate = baseline.PerturbedSum(inputs, rng);
  if (!estimate.ok()) return -1.0;
  auto mse = mechanisms::MeanSquaredErrorPerDimension(*estimate, inputs);
  return mse.ok() ? *mse : -1.0;
}

}  // namespace smm::bench

#endif  // SMM_BENCH_SUM_EXPERIMENT_H_
