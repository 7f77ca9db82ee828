#pragma once
// "H5-lite": a chunked, stripable binary container for 2-D double datasets.
//
// Stands in for HDF5-on-Lustre in the paper's data pipeline (DESIGN.md §2):
//   * datasets are stored row-major in fixed-size row chunks;
//   * a dataset may be striped over K files (emulating Lustre OSTs — the
//     paper stripes over 160 OSTs to make TB-scale reads take seconds);
//   * readers address arbitrary contiguous row ranges ("hyperslabs");
//   * the conventional reader reopens the file for every chunk, exactly the
//     behaviour Table II blames for 10^4-second read times.
//
// Layout of stripe k of K: a 48-byte header (magic, version, rows, cols,
// chunk_rows, n_stripes) followed by the payload of every chunk c with
// c % K == k, in ascending c.

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace uoi::io {

struct DatasetInfo {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t chunk_rows = 0;
  std::uint64_t n_stripes = 1;

  [[nodiscard]] std::uint64_t n_chunks() const {
    return chunk_rows == 0 ? 0 : (rows + chunk_rows - 1) / chunk_rows;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return rows * cols * sizeof(double);
  }
};

/// Stripe file path for stripe `k` of dataset `base`.
[[nodiscard]] std::string stripe_path(const std::string& base, std::uint64_t k);

/// Writes `data` as a dataset at `base` (one file per stripe).
void write_dataset(const std::string& base, uoi::linalg::ConstMatrixView data,
                   std::uint64_t chunk_rows, std::uint64_t n_stripes = 1);

/// Reads and validates the header of stripe 0. Raises IoError when it is
/// not an H5-lite header, has zero chunk_rows or n_stripes, or has a
/// rows x cols x 8 that overflows.
[[nodiscard]] DatasetInfo read_info(const std::string& base);

/// Random-access reader. Thread-compatible: distinct Reader instances may
/// read the same dataset concurrently (each owns its file handles).
class DatasetReader {
 public:
  explicit DatasetReader(std::string base);

  [[nodiscard]] const DatasetInfo& info() const noexcept { return info_; }

  /// Hyperslab: rows [row_begin, row_begin + n_rows) into `out`. This and
  /// the chunk reads raise IoError, before allocating, when stripe 0 is
  /// shorter than the header says.
  void read_rows(std::uint64_t row_begin, std::uint64_t n_rows,
                 uoi::linalg::Matrix& out) const;

  /// Reads one whole chunk (the last chunk may be short).
  void read_chunk(std::uint64_t chunk, uoi::linalg::Matrix& out) const;

  /// As read_chunk, but opens and closes the stripe file per call — the
  /// conventional serial-HDF5 access pattern Table II measures.
  void read_chunk_reopening(std::uint64_t chunk,
                            uoi::linalg::Matrix& out) const;

  /// Number of rows in `chunk`.
  [[nodiscard]] std::uint64_t chunk_row_count(std::uint64_t chunk) const;

 private:
  /// Byte offset of `chunk`'s payload within its stripe file.
  [[nodiscard]] std::uint64_t chunk_offset_in_stripe(std::uint64_t chunk) const;
  void read_chunk_from(std::ifstream& file, std::uint64_t chunk,
                       uoi::linalg::Matrix& out) const;

  std::string base_;
  DatasetInfo info_;
};

}  // namespace uoi::io
