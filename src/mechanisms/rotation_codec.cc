#include "mechanisms/rotation_codec.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/bit_util.h"
#include "common/simd.h"
#include "secagg/modular.h"

namespace smm::mechanisms {

StatusOr<RotationCodec> RotationCodec::Create(const Options& options) {
  if (options.dim == 0 || !IsPowerOfTwo(options.dim)) {
    return InvalidArgumentError("codec dimension must be a power of two");
  }
  if (!(options.gamma > 0.0)) {
    return InvalidArgumentError("gamma must be > 0");
  }
  if (options.modulus < 2) {
    return InvalidArgumentError("modulus must be >= 2");
  }
  std::optional<transform::RandomRotation> rotation;
  if (options.apply_rotation) {
    SMM_ASSIGN_OR_RETURN(auto r, transform::RandomRotation::Create(
                                     options.dim, options.rotation_seed));
    rotation = std::move(r);
  }
  return RotationCodec(options, std::move(rotation));
}

StatusOr<std::vector<double>> RotationCodec::RotateScale(
    const std::vector<double>& x) const {
  if (x.size() != options_.dim) {
    return InvalidArgumentError("input dimension mismatch");
  }
  std::vector<double> g;
  if (rotation_.has_value()) {
    SMM_ASSIGN_OR_RETURN(g, rotation_->Apply(x));
  } else {
    g = x;
  }
  simd::ScaleInPlace(g.data(), g.size(), options_.gamma);
  return g;
}

Status RotationCodec::RotateRawBatchInto(
    const std::vector<std::vector<double>>& inputs, size_t begin, size_t end,
    std::vector<double>& flat) const {
  const size_t d = options_.dim;
  if (rotation_.has_value()) {
    return rotation_->ApplyRawBatchInto(inputs, begin, end, flat);
  }
  if (begin > end || end > inputs.size()) {
    return InvalidArgumentError("batch range out of bounds");
  }
  flat.resize((end - begin) * d);
  for (size_t i = begin; i < end; ++i) {
    if (inputs[i].size() != d) {
      return InvalidArgumentError("input dimension mismatch");
    }
    std::copy(inputs[i].begin(), inputs[i].end(),
              flat.begin() + static_cast<ptrdiff_t>((i - begin) * d));
  }
  return OkStatus();
}

double RotationCodec::wht_norm_scale() const {
  return rotation_.has_value()
             ? 1.0 / std::sqrt(static_cast<double>(options_.dim))
             : 1.0;
}

std::vector<uint64_t> RotationCodec::Wrap(const std::vector<int64_t>& values,
                                          int64_t* overflow_count) const {
  std::vector<uint64_t> out(values.size());
  // The kernel reduces into Z_m and counts coordinates outside the
  // representable centered window {-floor(m/2), ..., ceil(m/2) - 1} —
  // exactly what CenterLift inverts, for either modulus parity.
  const size_t overflowed = simd::WrapCenteredInto(
      values.data(), values.size(), options_.modulus, out.data());
  if (overflow_count != nullptr) {
    *overflow_count += static_cast<int64_t>(overflowed);
  }
  return out;
}

StatusOr<std::vector<double>> RotationCodec::Decode(
    const std::vector<uint64_t>& zm_sum) const {
  if (zm_sum.size() != options_.dim) {
    return InvalidArgumentError("aggregated sum dimension mismatch");
  }
  const std::vector<int64_t> lifted =
      secagg::LiftVector(zm_sum, options_.modulus);
  std::vector<double> y(lifted.size());
  for (size_t j = 0; j < y.size(); ++j) {
    y[j] = static_cast<double>(lifted[j]);
  }
  std::vector<double> out;
  if (rotation_.has_value()) {
    SMM_ASSIGN_OR_RETURN(out, rotation_->Inverse(y));
  } else {
    out = std::move(y);
  }
  // A true division (not a reciprocal multiply), on the dispatched kernel.
  simd::UnscaleInPlace(out.data(), out.size(), options_.gamma);
  return out;
}

}  // namespace smm::mechanisms
