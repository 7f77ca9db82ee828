#pragma once
// Dense row-major matrix and vector types.
//
// Design notes:
//  * Row-major storage matches the sample-per-row layout of the datasets and
//    makes row-block distribution (the paper's row-wise block striping)
//    contiguous.
//  * `Matrix` owns its storage; `ConstMatrixView`/`MatrixView` are cheap
//    non-owning (rows, cols, stride, data) tuples used to hand row blocks to
//    solvers without copying (Core Guidelines P.7 / I.13: pass ranges, not
//    raw pointers-plus-size pairs).
//  * Only `double` is supported: the paper's workloads are all FP64.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace uoi::linalg {

using Vector = std::vector<double>;

class ConstMatrixView;

/// Owning dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols with every entry set to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// From a nested initializer list; rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Deep copy of a view (materializes strided data contiguously).
  static Matrix from_view(const ConstMatrixView& view);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_ * cols_; }
  [[nodiscard]] bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    UOI_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    UOI_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

  /// Contiguous span over row r.
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept;
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept;

  /// Copies column c into a Vector.
  [[nodiscard]] Vector col(std::size_t c) const;

  /// Sets every entry to `value`.
  void fill(double value) noexcept;

  /// Resizes (destroys contents; new entries zero).
  void resize(std::size_t rows, std::size_t cols);

  /// Non-owning view of the whole matrix.
  [[nodiscard]] ConstMatrixView view() const noexcept;

  /// Non-owning view of rows [row_begin, row_begin + n_rows).
  [[nodiscard]] ConstMatrixView row_block(std::size_t row_begin,
                                          std::size_t n_rows) const;

  /// New matrix containing the listed rows (bootstrap gather).
  [[nodiscard]] Matrix gather_rows(std::span<const std::size_t> indices) const;

  /// New matrix containing the listed columns (support restriction).
  [[nodiscard]] Matrix gather_cols(std::span<const std::size_t> indices) const;

  /// Transposed copy.
  [[nodiscard]] Matrix transposed() const;

  /// Sum of the diagonal entries.
  [[nodiscard]] double trace() const noexcept;

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Non-owning read-only view over a row-major block with arbitrary row
/// stride. Valid only while the underlying storage lives.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, std::size_t rows, std::size_t cols,
                  std::size_t row_stride)
      : data_(data), rows_(rows), cols_(cols), stride_(row_stride) {}
  /// Whole-matrix view.
  ConstMatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : ConstMatrixView(m.data(), m.rows(), m.cols(), m.cols()) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t row_stride() const noexcept { return stride_; }
  [[nodiscard]] const double* data() const noexcept { return data_; }

  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    UOI_ASSERT(r < rows_ && c < cols_);
    return data_[r * stride_ + c];
  }

  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    UOI_ASSERT(r < rows_);
    return {data_ + r * stride_, cols_};
  }

  /// Sub-block view of rows [row_begin, row_begin + n_rows).
  [[nodiscard]] ConstMatrixView row_block(std::size_t row_begin,
                                          std::size_t n_rows) const {
    UOI_ASSERT(row_begin + n_rows <= rows_);
    return {data_ + row_begin * stride_, n_rows, cols_, stride_};
  }

 private:
  const double* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
};

/// Maximum absolute elementwise difference; used by tests.
[[nodiscard]] double max_abs_diff(const Matrix& a, const Matrix& b);
[[nodiscard]] double max_abs_diff(std::span<const double> a,
                                  std::span<const double> b);

}  // namespace uoi::linalg
