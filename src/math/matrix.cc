#include "math/matrix.h"

#include <algorithm>
#include <cstring>

namespace copyattack::math {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::FillNormal(util::Rng& rng, float mean, float stddev) {
  for (auto& v : data_) {
    v = static_cast<float>(rng.Normal(mean, stddev));
  }
}

void Matrix::Resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::Reserve(std::size_t rows) {
  CA_CHECK_GT(cols_, 0U) << "Reserve requires a fixed column count";
  data_.reserve(rows * cols_);
}

float* Matrix::AppendRow() {
  CA_CHECK_GT(cols_, 0U) << "AppendRow requires a fixed column count";
  // std::vector::resize grows capacity geometrically, so repeated appends
  // are amortized O(cols) instead of O(rows * cols).
  data_.resize(data_.size() + cols_, 0.0f);
  ++rows_;
  return data_.data() + (rows_ - 1) * cols_;
}

void Matrix::EnsureRows(std::size_t rows) {
  if (rows <= rows_) return;
  CA_CHECK_GT(cols_, 0U) << "EnsureRows requires a fixed column count";
  data_.resize(rows * cols_, 0.0f);
  rows_ = rows;
}

void Matrix::TruncateRows(std::size_t rows) {
  CA_CHECK_LE(rows, rows_);
  data_.resize(rows * cols_);  // keeps capacity for the next episode
  rows_ = rows;
}

void Matrix::CopyRowFrom(const Matrix& src, std::size_t src_row,
                         std::size_t dst_row) {
  CA_CHECK_EQ(src.cols_, cols_);
  CA_CHECK_LT(src_row, src.rows_);
  CA_CHECK_LT(dst_row, rows_);
  std::memcpy(Row(dst_row), src.Row(src_row), cols_ * sizeof(float));
}

void Matrix::AddScaled(const Matrix& other, float alpha) {
  CA_CHECK_EQ(rows_, other.rows_);
  CA_CHECK_EQ(cols_, other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Matrix::Scale(float alpha) {
  for (auto& v : data_) v *= alpha;
}

double Matrix::SquaredNorm() const {
  double sum = 0.0;
  for (const float v : data_) sum += static_cast<double>(v) * v;
  return sum;
}

}  // namespace copyattack::math
