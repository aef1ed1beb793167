#include "math/top_k.h"

#include <algorithm>
#include <numeric>

#include "util/annotations.h"
#include "util/check.h"

namespace copyattack::math {
namespace {

/// Comparator: higher score first; on ties the lower index wins.
struct DescendingByScore {
  const std::vector<float>& scores;
  bool operator()(std::size_t a, std::size_t b) const {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  }
};

/// The same order over indices into a raw row. A function object (not a
/// function pointer) so the std algorithms inline every comparison.
struct RowRanksBetter {
  const float* scores;
  bool operator()(std::size_t a, std::size_t b) const {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  }
};

/// Largest k served by the insertion buffer; larger k fall back to a
/// partial sort.
constexpr std::size_t kInsertionMaxK = 64;

/// Stack slots of the insertion buffer: its k entries slide up through
/// them and are copied back to the bottom when they reach the top.
constexpr std::size_t kInsertionSlots = 4 * kInsertionMaxK;

/// One kept candidate of the insertion buffer.
struct Kept {
  float score;
  std::size_t index;
};

// The select scans indices in ascending order, so a candidate always has
// a larger index than everything already kept: it ranks better than a
// kept entry exactly when its score is strictly greater. Ties therefore
// cost nothing and keep the lower index, as the sort contract demands.

/// Top-k for 0 < k <= kInsertionMaxK, k < n: the k best so far, sorted
/// worst first in the window kept[lo, lo + k). A candidate costs one
/// compare against the worst kept score. An accepted one drops the worst
/// entry; if it beats the best it is appended above the window, which
/// slides up one slot (O(1), so ascending rows are cheap), otherwise it
/// slides into place from the bottom (at most k moves).
void InsertionSelect(const float* scores, std::size_t n, std::size_t k,
                     std::size_t* out) {
  // Left uninitialized: only slots already written are read, and
  // clearing 4 KB would cost a fair share of a 101-wide row.
  Kept kept[kInsertionSlots];
  kept[0] = {scores[0], 0};
  for (std::size_t i = 1; i < k; ++i) {
    const float score = scores[i];
    std::size_t p = i;
    while (p > 0 && !(kept[p - 1].score < score)) {
      kept[p] = kept[p - 1];
      --p;
    }
    kept[p] = {score, i};
  }
  std::size_t lo = 0;
  float worst = kept[0].score;
  float best = kept[k - 1].score;
  for (std::size_t i = k; i < n; ++i) {
    const float score = scores[i];
    if (!(score > worst)) continue;
    if (score > best) {
      if (lo + k == kInsertionSlots) {
        std::copy(kept + lo, kept + lo + k, kept);
        lo = 0;
      }
      kept[lo + k] = {score, i};
      ++lo;
      best = score;
    } else {
      // The best kept entry stops the slide, so it needs no bound check.
      Kept* window = kept + lo;
      std::size_t p = 0;
      while (score > window[p + 1].score) {
        window[p] = window[p + 1];
        ++p;
      }
      window[p] = {score, i};
    }
    worst = kept[lo].score;
  }
  for (std::size_t j = 0; j < k; ++j) out[j] = kept[lo + k - 1 - j].index;
}

/// Top-k for kInsertionMaxK < k < n. No caller selects that many (the
/// query round uses k = 20), so this stays the sorted reference rather
/// than a second select to keep in step with the first.
void PartialSortSelect(const float* scores, std::size_t n, std::size_t k,
                       std::size_t* out) CA_COLD_OK("k > 64, no caller") {
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  std::partial_sort(indices.begin(), indices.begin() + k, indices.end(),
                    RowRanksBetter{scores});
  std::copy_n(indices.begin(), k, out);
}

/// Selects the Top-k (k <= n) of `scores[0, n)` into `out`, best first.
void SelectInto(const float* scores, std::size_t n, std::size_t k,
                std::size_t* out) CA_HOT_PATH {
  if (k >= n) {
    std::iota(out, out + n, std::size_t{0});
    std::sort(out, out + n, RowRanksBetter{scores});
  } else if (k <= kInsertionMaxK) {
    if (k > 0) InsertionSelect(scores, n, k, out);
  } else {
    PartialSortSelect(scores, n, k, out);
  }
}

}  // namespace

std::vector<std::size_t> TopKIndicesBySort(const std::vector<float>& scores,
                                           std::size_t k) {
  std::vector<std::size_t> indices(scores.size());
  std::iota(indices.begin(), indices.end(), 0U);
  const DescendingByScore cmp{scores};
  if (k < indices.size()) {
    std::partial_sort(indices.begin(), indices.begin() + k, indices.end(),
                      cmp);
    indices.resize(k);
  } else {
    std::sort(indices.begin(), indices.end(), cmp);
  }
  return indices;
}

void TopKPerRow(const float* scores, std::size_t rows, std::size_t cols,
                std::size_t k, std::size_t* out) CA_HOT_PATH {
  CA_CHECK_LE(k, cols);
  CA_CHECK(out != nullptr);
  for (std::size_t r = 0; r < rows; ++r) {
    SelectInto(scores + r * cols, cols, k, out + r * k);
  }
}

std::size_t RankOf(const std::vector<float>& scores, std::size_t index) {
  CA_CHECK_LT(index, scores.size());
  const float score = scores[index];
  std::size_t rank = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] > score || (scores[i] == score && i < index)) {
      ++rank;
    }
  }
  return rank;
}

}  // namespace copyattack::math
