#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "test_seed.h"

#include "math/matrix.h"
#include "math/metrics.h"
#include "math/sampling.h"
#include "math/stats.h"
#include "math/top_k.h"
#include "math/vector_ops.h"
#include "util/rng.h"

namespace copyattack::math {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.size(), 6U);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 7.0f);
}

TEST(MatrixTest, FillAndZero) {
  Matrix m(2, 2);
  m.Fill(3.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 3.0f);
  m.Zero();
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
}

TEST(MatrixTest, AddScaledAndScale) {
  Matrix a(1, 3, 1.0f);
  Matrix b(1, 3, 2.0f);
  a.AddScaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a(0, 0), 2.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a(0, 2), 4.0f);
}

TEST(MatrixTest, SquaredNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0f;
  m(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 25.0);
}

TEST(MatrixTest, CopyRowFrom) {
  Matrix src(2, 3, 0.0f);
  src(1, 0) = 1;
  src(1, 1) = 2;
  src(1, 2) = 3;
  Matrix dst(4, 3, 9.0f);
  dst.CopyRowFrom(src, 1, 2);
  EXPECT_FLOAT_EQ(dst(2, 1), 2.0f);
  EXPECT_FLOAT_EQ(dst(0, 0), 9.0f);
}

TEST(MatrixTest, AppendRowGrowsAmortized) {
  Matrix m(0, 3);
  EXPECT_EQ(m.rows(), 0U);
  for (std::size_t r = 0; r < 100; ++r) {
    float* row = m.AppendRow();
    EXPECT_FLOAT_EQ(row[0], 0.0f);  // new rows arrive zeroed
    for (std::size_t c = 0; c < 3; ++c) {
      row[c] = static_cast<float>(r * 3 + c);
    }
  }
  EXPECT_EQ(m.rows(), 100U);
  // Every previously written row survived the geometric reallocations.
  for (std::size_t r = 0; r < 100; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      ASSERT_FLOAT_EQ(m(r, c), static_cast<float>(r * 3 + c));
    }
  }
}

TEST(MatrixTest, ReserveAvoidsReallocation) {
  Matrix m(0, 4);
  m.Reserve(64);
  EXPECT_GE(m.row_capacity(), 64U);
  const float* base = m.AppendRow();
  for (std::size_t r = 1; r < 64; ++r) m.AppendRow();
  EXPECT_EQ(m.Row(0), base);  // no reallocation within the reservation
}

TEST(MatrixTest, EnsureRowsPreservesAndZeroFills) {
  Matrix m(2, 2, 5.0f);
  m.EnsureRows(4);
  EXPECT_EQ(m.rows(), 4U);
  EXPECT_FLOAT_EQ(m(1, 1), 5.0f);
  EXPECT_FLOAT_EQ(m(3, 0), 0.0f);
  m.EnsureRows(1);  // never shrinks
  EXPECT_EQ(m.rows(), 4U);
}

TEST(MatrixTest, TruncateRowsKeepsCapacityForRegrowth) {
  Matrix m(8, 2, 1.0f);
  m.TruncateRows(3);
  EXPECT_EQ(m.rows(), 3U);
  EXPECT_GE(m.row_capacity(), 8U);
  EXPECT_FLOAT_EQ(m(2, 1), 1.0f);
  // Regrowing reuses the allocation and yields zeroed rows again.
  m.EnsureRows(6);
  EXPECT_FLOAT_EQ(m(5, 0), 0.0f);
}

TEST(VectorOpsTest, KernelsMatchDoublePrecisionReference) {
  // The unrolled kernels must agree with a double-precision reference to
  // within float rounding, across lengths covering every unroll tail.
  util::Rng rng(testhelpers::TestSeed(314));
  for (const std::size_t n : {1U, 2U, 3U, 4U, 5U, 7U, 8U, 15U, 64U, 257U}) {
    std::vector<float> a(n), b(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      b[i] = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      y[i] = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
    }
    double dot_ref = 0.0, dist_ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot_ref += static_cast<double>(a[i]) * b[i];
      const double d = static_cast<double>(a[i]) - b[i];
      dist_ref += d * d;
    }
    const double tolerance = 1e-4 * static_cast<double>(n);
    EXPECT_NEAR(Dot(a.data(), b.data(), n), dot_ref, tolerance) << "n=" << n;
    EXPECT_NEAR(SquaredDistance(a.data(), b.data(), n), dist_ref, tolerance)
        << "n=" << n;

    std::vector<double> axpy_ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      axpy_ref[i] = static_cast<double>(y[i]) + 0.75 * a[i];
    }
    Axpy(0.75f, a.data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(y[i], axpy_ref[i], 1e-5) << "n=" << n << " i=" << i;
    }
  }
}

TEST(VectorOpsTest, DotIsDeterministicAcrossCalls) {
  util::Rng rng(testhelpers::TestSeed(55));
  std::vector<float> a(123), b(123);
  for (auto& v : a) v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  const float first = Dot(a.data(), b.data(), a.size());
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(first, Dot(a.data(), b.data(), a.size()));
  }
}

TEST(VectorOpsTest, DotAndAxpy) {
  const float a[] = {1, 2, 3};
  float b[] = {4, 5, 6};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 32.0f);
  Axpy(2.0f, a, b, 3);
  EXPECT_FLOAT_EQ(b[0], 6.0f);
  EXPECT_FLOAT_EQ(b[2], 12.0f);
}

TEST(VectorOpsTest, Distances) {
  const float a[] = {0, 0};
  const float b[] = {3, 4};
  EXPECT_FLOAT_EQ(SquaredDistance(a, b, 2), 25.0f);
}

TEST(VectorOpsTest, SoftmaxSumsToOneAndIsMonotone) {
  std::vector<float> v = {1.0f, 2.0f, 3.0f};
  SoftmaxInPlace(v);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0f, 1e-6f);
  EXPECT_LT(v[0], v[1]);
  EXPECT_LT(v[1], v[2]);
}

TEST(VectorOpsTest, SoftmaxNumericallyStable) {
  std::vector<float> v = {1000.0f, 1001.0f};
  SoftmaxInPlace(v);
  EXPECT_NEAR(v[0] + v[1], 1.0f, 1e-6f);
  EXPECT_GT(v[1], v[0]);
}

TEST(VectorOpsTest, MaskedSoftmaxZeroesMaskedEntries) {
  std::vector<float> v = {5.0f, 1.0f, 2.0f};
  MaskedSoftmaxInPlace(v, {false, true, true});
  EXPECT_FLOAT_EQ(v[0], 0.0f);
  EXPECT_NEAR(v[1] + v[2], 1.0f, 1e-6f);
  EXPECT_GT(v[2], v[1]);
}

TEST(VectorOpsTest, MaskedSoftmaxSingleUnmasked) {
  std::vector<float> v = {-10.0f, 3.0f};
  MaskedSoftmaxInPlace(v, {true, false});
  EXPECT_NEAR(v[0], 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(v[1], 0.0f);
}

TEST(VectorOpsTest, ArgMaxBreaksTiesLow) {
  EXPECT_EQ(ArgMax({1.0f, 3.0f, 3.0f}), 1U);
}

TEST(VectorOpsTest, NormalizeL2) {
  float v[] = {3.0f, 4.0f};
  NormalizeL2(v, 2);
  EXPECT_NEAR(v[0] * v[0] + v[1] * v[1], 1.0f, 1e-6f);
  float zero[] = {0.0f, 0.0f};
  NormalizeL2(zero, 2);  // must not produce NaN
  EXPECT_FLOAT_EQ(zero[0], 0.0f);
}

/// The Top-k of one score vector through the single-row form of the
/// production select; `k` beyond the row returns the full argsort.
std::vector<std::size_t> SelectTopK(const std::vector<float>& scores,
                                    std::size_t k) {
  std::vector<std::size_t> out(std::min(k, scores.size()));
  TopKPerRow(scores.data(), 1, scores.size(), out.size(), out.data());
  return out;
}

TEST(TopKTest, ReturnsBestFirst) {
  const std::vector<float> scores = {0.1f, 0.9f, 0.5f, 0.7f};
  const auto top = SelectTopK(scores, 2);
  ASSERT_EQ(top.size(), 2U);
  EXPECT_EQ(top[0], 1U);
  EXPECT_EQ(top[1], 3U);
}

TEST(TopKTest, KLargerThanInputReturnsFullSort) {
  const std::vector<float> scores = {0.3f, 0.1f, 0.2f};
  const auto top = SelectTopK(scores, 10);
  EXPECT_EQ(top, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(TopKTest, TiesBreakTowardLowerIndex) {
  const std::vector<float> scores = {0.5f, 0.5f, 0.5f};
  const auto top = SelectTopK(scores, 3);
  EXPECT_EQ(top, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(TopKTest, RankOfConsistentWithArgSort) {
  util::Rng rng(testhelpers::TestSeed(17));
  std::vector<float> scores(50);
  for (auto& s : scores) s = static_cast<float>(rng.UniformDouble());
  const auto order = SelectTopK(scores, scores.size());
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    EXPECT_EQ(RankOf(scores, order[rank]), rank);
  }
}

TEST(TopKTest, HeapSelectMatchesSortedReference) {
  // The serving hot path replaced the partial-sort Top-k with a bounded
  // heap select; the two must agree exactly, including tie order, on
  // random score vectors with deliberate duplicates.
  util::Rng rng(testhelpers::TestSeed(29));
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.UniformUint64(64);
    std::vector<float> scores(n);
    for (auto& s : scores) {
      // Quantize to force frequent ties.
      s = static_cast<float>(rng.UniformUint64(8)) * 0.125f;
    }
    for (const std::size_t k : {std::size_t{1}, n / 2, n, n + 5}) {
      if (k == 0) continue;
      SCOPED_TRACE("trial " + std::to_string(trial) + " n " +
                   std::to_string(n) + " k " + std::to_string(k));
      EXPECT_EQ(SelectTopK(scores, k), TopKIndicesBySort(scores, k));
    }
  }
}

TEST(TopKTest, PointerFormMatchesVectorForm) {
  // A row read in place from the middle of a larger block selects from
  // its own span only, the same as the vector it was copied into.
  util::Rng rng(testhelpers::TestSeed(31));
  std::vector<float> block(60);
  for (auto& s : block) s = static_cast<float>(rng.UniformDouble());
  const std::vector<float> row(block.begin() + 10, block.begin() + 50);
  std::vector<std::size_t> out(7);
  TopKPerRow(block.data() + 10, 1, row.size(), 7, out.data());
  EXPECT_EQ(out, TopKIndicesBySort(row, 7));
}

TEST(TopKTest, PerRowMatchesRowWiseSelection) {
  util::Rng rng(testhelpers::TestSeed(37));
  const std::size_t rows = 6;
  const std::size_t cols = 23;
  const std::size_t k = 5;
  std::vector<float> block(rows * cols);
  for (auto& s : block) {
    s = static_cast<float>(rng.UniformUint64(16)) * 0.0625f;
  }
  std::vector<std::size_t> out(rows * k);
  TopKPerRow(block.data(), rows, cols, k, out.data());
  for (std::size_t r = 0; r < rows; ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    const std::vector<float> row(block.begin() + r * cols,
                                 block.begin() + (r + 1) * cols);
    const auto expected = TopKIndicesBySort(row, k);
    const std::vector<std::size_t> got(out.begin() + r * k,
                                       out.begin() + (r + 1) * k);
    EXPECT_EQ(got, expected);
  }
}

// The select has three internal paths: a stack insertion buffer for
// k <= 64, a partial-sort fallback above that, and a full sort for
// k >= n. Every k around those boundaries must match the sorted reference
// exactly, on tie-heavy rows in every input order, through both the
// single-row and the three-row form.
TEST(TopKTest, SelectMatchesSortedReferenceOnEveryPath) {
  util::Rng rng(testhelpers::TestSeed(41));
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{20}, std::size_t{21},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{66}, std::size_t{101},
                              std::size_t{500}, std::size_t{1100}}) {
    for (int order = 0; order < 4; ++order) {
      std::vector<float> scores(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Quantized to 1/16 so ties are frequent at every n.
        const float random =
            static_cast<float>(rng.UniformUint64(16)) * 0.0625f;
        const float rising = static_cast<float>(i / 3) * 0.0625f;
        scores[i] = order == 0   ? random
                    : order == 1 ? rising
                    : order == 2 ? -rising
                                 : 0.5f;
      }
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{19}, std::size_t{20},
            std::size_t{21}, std::size_t{64}, std::size_t{65}, n - 1, n,
            n + 5}) {
        if (k == 0) continue;
        SCOPED_TRACE("n " + std::to_string(n) + " order " +
                     std::to_string(order) + " k " + std::to_string(k));
        const auto expected = TopKIndicesBySort(scores, k);
        EXPECT_EQ(SelectTopK(scores, k), expected);
        if (k > n) continue;
        std::vector<float> block;
        for (int r = 0; r < 3; ++r) {
          block.insert(block.end(), scores.begin(), scores.end());
        }
        std::vector<std::size_t> out(3 * k, n);
        TopKPerRow(block.data(), 3, n, k, out.data());
        for (std::size_t r = 0; r < 3; ++r) {
          EXPECT_EQ(std::vector<std::size_t>(out.begin() + r * k,
                                             out.begin() + (r + 1) * k),
                    expected);
        }
      }
    }
  }
}

TEST(SamplingTest, AliasTableMatchesWeights) {
  const std::vector<double> weights = {1.0, 2.0, 7.0};
  AliasTable table(weights);
  util::Rng rng(testhelpers::TestSeed(23));
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.01);
}

TEST(SamplingTest, AliasTableZeroWeightNeverSampled) {
  AliasTable table({0.0, 1.0, 0.0});
  util::Rng rng(testhelpers::TestSeed(5));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.Sample(rng), 1U);
  }
}

TEST(SamplingTest, AliasTableProbabilityOf) {
  AliasTable table({1.0, 3.0});
  EXPECT_NEAR(table.ProbabilityOf(0), 0.25, 1e-12);
  EXPECT_NEAR(table.ProbabilityOf(1), 0.75, 1e-12);
}

TEST(SamplingTest, ZipfWeightsDecreasing) {
  const auto w = ZipfWeights(10, 1.0);
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_LT(w[i], w[i - 1]);
  }
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_NEAR(w[1], 0.5, 1e-12);
}

TEST(SamplingTest, SampleCategoricalRespectsZeros) {
  util::Rng rng(testhelpers::TestSeed(3));
  for (int i = 0; i < 200; ++i) {
    const std::size_t s = SampleCategorical({0.0f, 0.5f, 0.0f, 0.5f}, rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(StatsTest, RunningStatsMeanVariance) {
  RunningStats stats;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_NEAR(stats.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
}

TEST(StatsTest, RunningStatsMergeEqualsSequential) {
  util::Rng rng(testhelpers::TestSeed(31));
  RunningStats all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Normal();
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
}

TEST(MetricsTest, HitRatioAtK) {
  EXPECT_DOUBLE_EQ(HitRatioAtK(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(HitRatioAtK(4, 5), 1.0);
  EXPECT_DOUBLE_EQ(HitRatioAtK(5, 5), 0.0);
}

TEST(MetricsTest, NdcgAtK) {
  EXPECT_DOUBLE_EQ(NdcgAtK(0, 10), 1.0);
  EXPECT_NEAR(NdcgAtK(1, 10), 1.0 / std::log2(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(NdcgAtK(10, 10), 0.0);
  // NDCG decreases with rank.
  EXPECT_GT(NdcgAtK(1, 20), NdcgAtK(2, 20));
}

/// Property sweep: masked softmax equals plain softmax restricted to the
/// unmasked coordinates, for several vector sizes.
class MaskedSoftmaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaskedSoftmaxProperty, MatchesRestrictedSoftmax) {
  const int n = GetParam();
  util::Rng rng(testhelpers::TestSeed(100 + n));
  std::vector<float> values(n);
  std::vector<bool> mask(n);
  bool any = false;
  for (int i = 0; i < n; ++i) {
    values[i] = static_cast<float>(rng.Normal());
    mask[i] = rng.UniformDouble() < 0.6;
    any = any || mask[i];
  }
  if (!any) mask[0] = true;

  std::vector<float> restricted;
  for (int i = 0; i < n; ++i) {
    if (mask[i]) restricted.push_back(values[i]);
  }
  SoftmaxInPlace(restricted);

  MaskedSoftmaxInPlace(values, mask);
  std::size_t j = 0;
  for (int i = 0; i < n; ++i) {
    if (mask[i]) {
      EXPECT_NEAR(values[i], restricted[j++], 1e-5f);
    } else {
      EXPECT_FLOAT_EQ(values[i], 0.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MaskedSoftmaxProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64));

}  // namespace
}  // namespace copyattack::math

namespace copyattack::math {
namespace {

/// Property sweep: the alias table reproduces arbitrary weight vectors'
/// normalized probabilities (reconstruction check, no sampling noise).
class AliasTableProperty : public ::testing::TestWithParam<int> {};

TEST_P(AliasTableProperty, NormalizedProbabilitiesPreserved) {
  util::Rng rng(testhelpers::TestSeed(700 + GetParam()));
  const std::size_t n = 1 + rng.UniformUint64(40);
  std::vector<double> weights(n);
  double total = 0.0;
  for (auto& w : weights) {
    w = rng.UniformDouble() < 0.2 ? 0.0 : rng.UniformDouble(0.01, 5.0);
    total += w;
  }
  if (total == 0.0) {
    weights[0] = 1.0;
    total = 1.0;
  }
  AliasTable table(weights);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(table.ProbabilityOf(i), weights[i] / total, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AliasTableProperty,
                         ::testing::Range(0, 10));

/// Property: Merge is associative and order-insensitive for RunningStats.
TEST(StatsProperty, MergeOrderInsensitive) {
  util::Rng rng(testhelpers::TestSeed(43));
  std::vector<double> values(60);
  for (auto& v : values) v = rng.Normal(2.0, 3.0);

  RunningStats abc, acb;
  RunningStats a, b, c;
  for (int i = 0; i < 20; ++i) a.Add(values[i]);
  for (int i = 20; i < 40; ++i) b.Add(values[i]);
  for (int i = 40; i < 60; ++i) c.Add(values[i]);

  abc = a;
  abc.Merge(b);
  abc.Merge(c);
  acb = a;
  acb.Merge(c);
  acb.Merge(b);
  EXPECT_NEAR(abc.Mean(), acb.Mean(), 1e-9);
  EXPECT_NEAR(abc.Variance(), acb.Variance(), 1e-9);
  EXPECT_EQ(abc.count(), 60U);
}

/// Property: the Top-k select is always a prefix of the full argsort.
class TopKPrefixProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopKPrefixProperty, PrefixOfArgsort) {
  util::Rng rng(testhelpers::TestSeed(900 + GetParam()));
  std::vector<float> scores(1 + rng.UniformUint64(60));
  for (auto& s : scores) s = static_cast<float>(rng.Normal());
  const auto full = TopKIndicesBySort(scores, scores.size());
  const std::size_t k = 1 + rng.UniformUint64(scores.size());
  const auto top = SelectTopK(scores, k);
  ASSERT_EQ(top.size(), std::min(k, scores.size()));
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i], full[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKPrefixProperty,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace copyattack::math
