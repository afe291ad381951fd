// The test oracle for the server-side sum: a plain scalar element-wise sum
// mod m, one `% m` reduction and one smm::AddMod per coordinate per input.
// It shares nothing with StreamingAggregator beyond AddMod (no SIMD kernel,
// no pool, no sharded partials, no masking), so agreement pins that the
// stream's vectorised, sharded accumulation — and, for the masked protocol,
// its Shamir dropout recovery — yields exactly the plain sum of the inputs
// the server accepted.
#ifndef SMM_TESTS_REFERENCE_SUM_H_
#define SMM_TESTS_REFERENCE_SUM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/math_util.h"

namespace smm::secagg {

/// Element-wise sum mod m of inputs[i] over every i in `participants`.
/// Entries need not be pre-reduced. Requires m >= 2 and non-empty
/// `participants` naming inputs of equal length.
inline std::vector<uint64_t> ReferenceSumOf(
    const std::vector<std::vector<uint64_t>>& inputs,
    const std::vector<int>& participants, uint64_t m) {
  const size_t dim = inputs[static_cast<size_t>(participants[0])].size();
  std::vector<uint64_t> sum(dim, 0);
  for (int i : participants) {
    const auto& v = inputs[static_cast<size_t>(i)];
    for (size_t k = 0; k < dim; ++k) {
      sum[k] = AddMod(sum[k], v[k] % m, m);
    }
  }
  return sum;
}

/// Element-wise sum mod m of every input. Requires m >= 2 and a non-empty
/// list of inputs of equal length.
inline std::vector<uint64_t> ReferenceSum(
    const std::vector<std::vector<uint64_t>>& inputs, uint64_t m) {
  std::vector<int> everyone(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    everyone[i] = static_cast<int>(i);
  }
  return ReferenceSumOf(inputs, everyone, m);
}

}  // namespace smm::secagg

#endif  // SMM_TESTS_REFERENCE_SUM_H_
