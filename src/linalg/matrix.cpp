#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace uoi::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    UOI_CHECK_DIMS(row.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::from_view(const ConstMatrixView& view) {
  Matrix out(view.rows(), view.cols());
  for (std::size_t r = 0; r < view.rows(); ++r) {
    const auto src = view.row(r);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
  return out;
}

std::span<double> Matrix::row(std::size_t r) noexcept {
  UOI_ASSERT(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const noexcept {
  UOI_ASSERT(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

Vector Matrix::col(std::size_t c) const {
  UOI_CHECK_DIMS(c < cols_, "column index out of range");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::fill(double value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

ConstMatrixView Matrix::view() const noexcept { return {*this}; }

ConstMatrixView Matrix::row_block(std::size_t row_begin,
                                  std::size_t n_rows) const {
  UOI_CHECK_DIMS(row_begin + n_rows <= rows_, "row block out of range");
  return {data_.data() + row_begin * cols_, n_rows, cols_, cols_};
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    UOI_CHECK_DIMS(indices[i] < rows_, "gather row index out of range");
    const auto src = row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}

Matrix Matrix::gather_cols(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    UOI_CHECK_DIMS(indices[i] < cols_, "gather column index out of range");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto src = row(r);
    auto dst = out.row(r);
    for (std::size_t i = 0; i < indices.size(); ++i) dst[i] = src[indices[i]];
  }
  return out;
}

double Matrix::trace() const noexcept {
  double sum = 0.0;
  const std::size_t dim = std::min(rows_, cols_);
  for (std::size_t i = 0; i < dim; ++i) sum += data_[i * cols_ + i];
  return sum;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  UOI_CHECK_DIMS(a.rows() == b.rows() && a.cols() == b.cols(),
                 "max_abs_diff shape mismatch");
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    }
  }
  return worst;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  UOI_CHECK_DIMS(a.size() == b.size(), "max_abs_diff length mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace uoi::linalg
