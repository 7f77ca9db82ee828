#include "io/h5lite.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include "support/error.hpp"
#include "support/trace.hpp"

namespace uoi::io {

namespace {

constexpr std::uint64_t kMagic = 0x4c35485f494f55ULL;  // "UOI_H5L"
constexpr std::uint64_t kVersion = 1;

struct Header {
  std::uint64_t magic;
  std::uint64_t version;
  std::uint64_t rows;
  std::uint64_t cols;
  std::uint64_t chunk_rows;
  std::uint64_t n_stripes;
};
static_assert(sizeof(Header) == 48);

Header make_header(const DatasetInfo& info) {
  return {kMagic, kVersion, info.rows, info.cols, info.chunk_rows,
          info.n_stripes};
}

DatasetInfo parse_header(const Header& h, const std::string& path) {
  const auto corrupt = [&path](const char* what) {
    return uoi::support::IoError(path + ": corrupt H5-lite header (" + what +
                                 ")");
  };
  if (h.magic != kMagic) {
    throw uoi::support::IoError(path + ": not an H5-lite dataset");
  }
  if (h.version != kVersion) {
    throw uoi::support::IoError(path + ": unsupported H5-lite version");
  }
  if (h.chunk_rows == 0) throw corrupt("zero chunk_rows");
  if (h.n_stripes == 0) throw corrupt("zero n_stripes");
  constexpr std::uint64_t kMaxPayload =
      std::numeric_limits<std::uint64_t>::max() - sizeof(Header);
  if (h.cols != 0 && h.rows > kMaxPayload / sizeof(double) / h.cols) {
    throw corrupt("rows x cols x 8 overflows");
  }
  return {h.rows, h.cols, h.chunk_rows, h.n_stripes};
}

// Payload bytes of stripe 0: every chunk c with c % n_stripes == 0. Stripe
// 0 holds at least as many bytes as any other stripe, so a stripe 0 this
// long bounds every allocation and chunk offset the reader derives from
// the header.
std::uint64_t stripe0_payload_bytes(const DatasetInfo& info) {
  const std::uint64_t full_chunks = info.rows / info.chunk_rows;
  const std::uint64_t tail_rows = info.rows % info.chunk_rows;
  std::uint64_t rows =
      full_chunks == 0
          ? 0
          : ((full_chunks - 1) / info.n_stripes + 1) * info.chunk_rows;
  if (tail_rows != 0 && full_chunks % info.n_stripes == 0) rows += tail_rows;
  return rows * info.cols * sizeof(double);
}

// Raises IoError when stripe 0 is shorter than the header says. Runs
// before every read, ahead of any allocation sized from the header.
void check_stripe0_extent(const std::string& base, const DatasetInfo& info) {
  std::error_code ec;
  const std::uint64_t size =
      std::filesystem::file_size(stripe_path(base, 0), ec);
  if (ec || size < sizeof(Header) + stripe0_payload_bytes(info)) {
    throw uoi::support::IoError(
        base + ": corrupt H5-lite dataset (stripe 0 is shorter than its "
               "header says)");
  }
}

}  // namespace

std::string stripe_path(const std::string& base, std::uint64_t k) {
  return base + ".stripe" + std::to_string(k);
}

void write_dataset(const std::string& base, uoi::linalg::ConstMatrixView data,
                   std::uint64_t chunk_rows, std::uint64_t n_stripes) {
  uoi::support::TraceScope span("h5lite-write",
                                uoi::support::TraceCategory::kDataIo);
  UOI_CHECK(chunk_rows >= 1, "chunk_rows must be >= 1");
  UOI_CHECK(n_stripes >= 1, "n_stripes must be >= 1");
  DatasetInfo info{data.rows(), data.cols(), chunk_rows, n_stripes};
  const Header header = make_header(info);

  std::vector<std::ofstream> stripes;
  stripes.reserve(n_stripes);
  for (std::uint64_t k = 0; k < n_stripes; ++k) {
    auto& f = stripes.emplace_back(stripe_path(base, k),
                                   std::ios::binary | std::ios::trunc);
    if (!f) {
      throw uoi::support::IoError("cannot open for writing: " +
                                  stripe_path(base, k));
    }
    f.write(reinterpret_cast<const char*>(&header), sizeof(header));
  }

  for (std::uint64_t c = 0; c < info.n_chunks(); ++c) {
    auto& f = stripes[c % n_stripes];
    const std::uint64_t row_begin = c * chunk_rows;
    const std::uint64_t row_end = std::min(info.rows, row_begin + chunk_rows);
    for (std::uint64_t r = row_begin; r < row_end; ++r) {
      const auto row = data.row(r);
      f.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size_bytes()));
    }
  }
  for (auto& f : stripes) {
    if (!f) throw uoi::support::IoError("short write to " + base);
  }
}

DatasetInfo read_info(const std::string& base) {
  uoi::support::TraceScope span("h5lite-read-info",
                                uoi::support::TraceCategory::kDataIo);
  std::ifstream f(stripe_path(base, 0), std::ios::binary);
  if (!f) {
    throw uoi::support::IoError("cannot open dataset: " + stripe_path(base, 0));
  }
  Header header{};
  f.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!f) throw uoi::support::IoError("truncated header in " + base);
  return parse_header(header, base);
}

DatasetReader::DatasetReader(std::string base) : base_(std::move(base)) {
  info_ = read_info(base_);
}

std::uint64_t DatasetReader::chunk_row_count(std::uint64_t chunk) const {
  UOI_CHECK(chunk < info_.n_chunks(), "chunk index out of range");
  const std::uint64_t begin = chunk * info_.chunk_rows;
  return std::min(info_.rows, begin + info_.chunk_rows) - begin;
}

std::uint64_t DatasetReader::chunk_offset_in_stripe(
    std::uint64_t chunk) const {
  // Payload offset = header + rows of all earlier chunks in this stripe.
  std::uint64_t rows_before = 0;
  for (std::uint64_t c = chunk % info_.n_stripes; c < chunk;
       c += info_.n_stripes) {
    rows_before += chunk_row_count(c);
  }
  return sizeof(Header) + rows_before * info_.cols * sizeof(double);
}

void DatasetReader::read_chunk_from(std::ifstream& file, std::uint64_t chunk,
                                    uoi::linalg::Matrix& out) const {
  const std::uint64_t rows = chunk_row_count(chunk);
  out.resize(rows, info_.cols);
  file.seekg(static_cast<std::streamoff>(chunk_offset_in_stripe(chunk)));
  file.read(reinterpret_cast<char*>(out.data()),
            static_cast<std::streamsize>(rows * info_.cols * sizeof(double)));
  if (!file) {
    throw uoi::support::IoError("short read of chunk " +
                                std::to_string(chunk) + " in " + base_);
  }
}

void DatasetReader::read_chunk(std::uint64_t chunk,
                               uoi::linalg::Matrix& out) const {
  uoi::support::TraceScope span("h5lite-read-chunk",
                                uoi::support::TraceCategory::kDataIo);
  check_stripe0_extent(base_, info_);
  std::ifstream f(stripe_path(base_, chunk % info_.n_stripes),
                  std::ios::binary);
  if (!f) throw uoi::support::IoError("cannot open stripe for " + base_);
  read_chunk_from(f, chunk, out);
}

void DatasetReader::read_chunk_reopening(std::uint64_t chunk,
                                         uoi::linalg::Matrix& out) const {
  // Deliberately identical to read_chunk: the reopening *is* the point —
  // kept as a separate named entry so the conventional-distribution path
  // documents its access pattern at the call site.
  read_chunk(chunk, out);
}

void DatasetReader::read_rows(std::uint64_t row_begin, std::uint64_t n_rows,
                              uoi::linalg::Matrix& out) const {
  uoi::support::TraceScope span("h5lite-read-rows",
                                uoi::support::TraceCategory::kDataIo);
  UOI_CHECK(row_begin + n_rows <= info_.rows, "hyperslab out of range");
  check_stripe0_extent(base_, info_);
  out.resize(n_rows, info_.cols);
  if (n_rows == 0) return;

  // Open each needed stripe once; copy the overlapping part of each chunk.
  // Slot (c - first_chunk) % n_slots maps one-to-one onto the stripes the
  // hyperslab touches, so the header's stripe count never sizes this.
  uoi::linalg::Matrix chunk_data;
  const std::uint64_t first_chunk = row_begin / info_.chunk_rows;
  const std::uint64_t last_chunk = (row_begin + n_rows - 1) / info_.chunk_rows;
  const std::uint64_t n_slots =
      std::min(info_.n_stripes, last_chunk - first_chunk + 1);
  std::vector<std::unique_ptr<std::ifstream>> stripes(n_slots);
  for (std::uint64_t c = first_chunk; c <= last_chunk; ++c) {
    auto& file = stripes[(c - first_chunk) % n_slots];
    if (!file) {
      file = std::make_unique<std::ifstream>(
          stripe_path(base_, c % info_.n_stripes), std::ios::binary);
      if (!*file) {
        throw uoi::support::IoError("cannot open stripe for " + base_);
      }
    }
    read_chunk_from(*file, c, chunk_data);
    const std::uint64_t chunk_begin = c * info_.chunk_rows;
    const std::uint64_t copy_begin = std::max(chunk_begin, row_begin);
    const std::uint64_t copy_end =
        std::min(chunk_begin + chunk_data.rows(), row_begin + n_rows);
    for (std::uint64_t r = copy_begin; r < copy_end; ++r) {
      const auto src = chunk_data.row(r - chunk_begin);
      std::copy(src.begin(), src.end(), out.row(r - row_begin).begin());
    }
  }
}

}  // namespace uoi::io
