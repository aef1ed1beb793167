#ifndef COPYATTACK_MATH_MATRIX_H_
#define COPYATTACK_MATH_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace copyattack::math {

/// Dense row-major matrix of floats. This is the single numeric container
/// used by the embedding models and the neural-network library; it favours
/// clarity and cache-friendly row access over BLAS-level tuning, which is
/// adequate for the paper's scale (embedding size 8, action size 8).
class Matrix {
 public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a `rows` x `cols` matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    CA_CHECK_LT(r, rows_);
    CA_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    CA_CHECK_LT(r, rows_);
    CA_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Unchecked element access for hot loops.
  float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Pointer to the beginning of row `r`.
  float* Row(std::size_t r) {
    CA_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(std::size_t r) const {
    CA_CHECK_LT(r, rows_);
    return data_.data() + r * cols_;
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// Fills with N(mean, stddev) deviates.
  void FillNormal(util::Rng& rng, float mean, float stddev);

  /// Resizes to `rows` x `cols`, discarding contents, filled with zero.
  void Resize(std::size_t rows, std::size_t cols);

  /// Number of rows the current allocation can hold without reallocating
  /// (0 for a column-less matrix).
  std::size_t row_capacity() const {
    return cols_ == 0 ? 0 : data_.capacity() / cols_;
  }

  /// Pre-allocates storage for at least `rows` rows (column count must be
  /// set). Existing contents are preserved; `rows()` is unchanged.
  void Reserve(std::size_t rows);

  /// Appends one zero-filled row and returns a pointer to it. Storage grows
  /// geometrically, so appending is O(cols) amortized — this is the
  /// injection-loop growth path (one row per injected profile).
  float* AppendRow();

  /// Grows to `rows` rows, preserving existing contents and zero-filling
  /// the new rows. No-op when `rows <= rows()`.
  void EnsureRows(std::size_t rows);

  /// Shrinks to `rows` rows in O(1), keeping the allocation (so a later
  /// regrowth to the old size reuses it). This is the serving-state
  /// rollback path: episode-injected rows are dropped without copying the
  /// surviving rows.
  void TruncateRows(std::size_t rows);

  /// Copies row `src_row` of `src` into row `dst_row` of this matrix.
  /// Column counts must match.
  void CopyRowFrom(const Matrix& src, std::size_t src_row,
                   std::size_t dst_row);

  /// this += alpha * other (shapes must match).
  void AddScaled(const Matrix& other, float alpha);

  /// Multiplies every element by `alpha`.
  void Scale(float alpha);

  /// Returns the sum of squares of all elements.
  double SquaredNorm() const;

  /// Exact element-wise equality (used by serialization round-trip tests).
  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace copyattack::math

#endif  // COPYATTACK_MATH_MATRIX_H_
