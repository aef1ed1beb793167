#ifndef COPYATTACK_MATH_TOP_K_H_
#define COPYATTACK_MATH_TOP_K_H_

#include <cstddef>
#include <vector>

namespace copyattack::math {

/// Returns the indices of the `k` largest scores, ordered from best to
/// worst, with ties broken toward the lower index; `k >= scores.size()`
/// returns the full descending argsort. This is the reference: a full
/// index partial sort, kept for the equivalence tests and as the ranking
/// contract. Production callers select through `TopKPerRow`.
std::vector<std::size_t> TopKIndicesBySort(const std::vector<float>& scores,
                                           std::size_t k);

/// Selects the Top-k of every row of a dense row-major `rows x cols`
/// score block in one call. Row `r`'s result occupies
/// `out[r * k .. r * k + k)`, best first, with the same deterministic
/// tie-breaking as `TopKIndicesBySort` and bit-identical to it
/// (equivalence is enforced by tests). Requires `k <= cols`; `out` must
/// hold `rows * k` entries.
///
/// Selection is exact: k <= 64 keeps a sorted insertion buffer on the
/// stack, k == cols sorts all indices in the output, and the k in between
/// (no caller) partial-sorts a local index vector. Allocates nothing for
/// k <= 64 or k == cols: the oracle calls it with `rows == 1` once per
/// Top-k query, with k = 20 in the query round.
void TopKPerRow(const float* scores, std::size_t rows, std::size_t cols,
                std::size_t k, std::size_t* out);

/// Rank (0-based) of `index` when `scores` is sorted descending with
/// deterministic tie-breaking toward lower indices. This is what the
/// evaluator uses to decide whether a test item made the Top-k cut.
std::size_t RankOf(const std::vector<float>& scores, std::size_t index);

}  // namespace copyattack::math

#endif  // COPYATTACK_MATH_TOP_K_H_
