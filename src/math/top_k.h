#ifndef COPYATTACK_MATH_TOP_K_H_
#define COPYATTACK_MATH_TOP_K_H_

#include <cstddef>
#include <vector>

namespace copyattack::math {

/// Returns the indices of the `k` largest scores, ordered from best to worst.
/// Ties break toward the lower index so the ranking is deterministic.
/// If `k >= scores.size()` the full argsort (descending) is returned.
///
/// Selection is exact: k <= 64 keeps a sorted insertion buffer on the
/// stack, k >= n sorts all indices in the output, and the k in between
/// (no caller) partial-sorts a local index vector. Bit-identical to the
/// sorted reference `TopKIndicesBySort` (equivalence is enforced by tests).
std::vector<std::size_t> TopKIndices(const std::vector<float>& scores,
                                     std::size_t k);

/// Pointer form of `TopKIndices` for callers that keep many rows of
/// scores in one contiguous block (batched oracle queries): selects the
/// Top-k of `scores[0, n)` without copying the row into a vector.
std::vector<std::size_t> TopKIndices(const float* scores, std::size_t n,
                                     std::size_t k);

/// Reference implementation of `TopKIndices` via full index argsort
/// (std::partial_sort over all indices). Kept for the equivalence tests
/// and as documentation of the ranking contract; production callers use
/// the selecting `TopKIndices`.
std::vector<std::size_t> TopKIndicesBySort(const std::vector<float>& scores,
                                           std::size_t k);

/// Selects the Top-k of every row of a dense row-major `rows x cols`
/// score block in one call (the batched-oracle form: one row per queried
/// user). Row `r`'s result occupies `out[r * k .. r * k + k)`, best
/// first, with the same deterministic tie-breaking as `TopKIndices`.
/// Requires `k <= cols`; `out` must hold `rows * k` entries. Allocates
/// nothing for k <= 64 or k == cols: the query round calls it once per
/// round with k = 20, and `rows == 1` serves a single query.
void TopKPerRow(const float* scores, std::size_t rows, std::size_t cols,
                std::size_t k, std::size_t* out);

/// Rank (0-based) of `index` when `scores` is sorted descending with
/// deterministic tie-breaking toward lower indices. This is what the
/// evaluator uses to decide whether a test item made the Top-k cut.
std::size_t RankOf(const std::vector<float>& scores, std::size_t index);

/// Full argsort of `scores` in descending order (deterministic ties).
std::vector<std::size_t> ArgSortDescending(const std::vector<float>& scores);

}  // namespace copyattack::math

#endif  // COPYATTACK_MATH_TOP_K_H_
