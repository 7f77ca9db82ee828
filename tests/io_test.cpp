// Tests for uoi::io: H5-lite round trips (chunking, striping, hyperslabs),
// and the two distribution strategies' correctness invariants.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "io/distribution.hpp"
#include "io/h5lite.hpp"
#include "simcluster/cluster.hpp"
#include "support/rng.hpp"

namespace {

using uoi::linalg::Matrix;

Matrix pattern_matrix(std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<double>(r * 1000 + c);
    }
  }
  return m;
}

class TempDataset {
 public:
  explicit TempDataset(const std::string& name)
      : base_((std::filesystem::temp_directory_path() / name).string()) {}
  ~TempDataset() {
    for (std::uint64_t k = 0; k < 64; ++k) {
      std::error_code ec;
      std::filesystem::remove(uoi::io::stripe_path(base_, k), ec);
    }
  }
  [[nodiscard]] const std::string& base() const { return base_; }

 private:
  std::string base_;
};

class H5LiteParam
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(H5LiteParam, WriteReadRoundTripAcrossChunkingAndStriping) {
  const auto [chunk_rows, stripes] = GetParam();
  TempDataset tmp("uoi_roundtrip_" + std::to_string(chunk_rows) + "_" +
                  std::to_string(stripes));
  const Matrix data = pattern_matrix(37, 5);
  uoi::io::write_dataset(tmp.base(), data, chunk_rows, stripes);

  const uoi::io::DatasetReader reader(tmp.base());
  EXPECT_EQ(reader.info().rows, 37u);
  EXPECT_EQ(reader.info().cols, 5u);
  EXPECT_EQ(reader.info().n_stripes, stripes);

  Matrix all;
  reader.read_rows(0, 37, all);
  EXPECT_EQ(uoi::linalg::max_abs_diff(all, data), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, H5LiteParam,
    ::testing::Combine(::testing::Values(1, 4, 10, 37, 100),
                       ::testing::Values(1, 3, 8)));

TEST(H5Lite, HyperslabReadsArbitraryRanges) {
  TempDataset tmp("uoi_hyperslab");
  const Matrix data = pattern_matrix(50, 3);
  uoi::io::write_dataset(tmp.base(), data, 7, 4);
  const uoi::io::DatasetReader reader(tmp.base());
  for (const auto& [begin, count] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 1}, {13, 21}, {49, 1},
        {6, 8}, {0, 50}}) {
    Matrix slab;
    reader.read_rows(begin, count, slab);
    ASSERT_EQ(slab.rows(), count);
    for (std::uint64_t r = 0; r < count; ++r) {
      EXPECT_DOUBLE_EQ(slab(r, 2), data(begin + r, 2));
    }
  }
}

TEST(H5Lite, ChunkRowCountsAndReopeningReader) {
  TempDataset tmp("uoi_chunks");
  const Matrix data = pattern_matrix(25, 2);
  uoi::io::write_dataset(tmp.base(), data, 10, 2);
  const uoi::io::DatasetReader reader(tmp.base());
  ASSERT_EQ(reader.info().n_chunks(), 3u);
  EXPECT_EQ(reader.chunk_row_count(0), 10u);
  EXPECT_EQ(reader.chunk_row_count(2), 5u);
  Matrix chunk;
  reader.read_chunk_reopening(2, chunk);
  EXPECT_EQ(chunk.rows(), 5u);
  EXPECT_DOUBLE_EQ(chunk(0, 0), data(20, 0));
}

TEST(H5Lite, MissingFileThrows) {
  EXPECT_THROW(uoi::io::DatasetReader("/nonexistent/uoi_nope"),
               uoi::support::IoError);
}

TEST(H5Lite, HyperslabOutOfRangeThrows) {
  TempDataset tmp("uoi_range");
  uoi::io::write_dataset(tmp.base(), pattern_matrix(10, 2), 5, 1);
  const uoi::io::DatasetReader reader(tmp.base());
  Matrix out;
  EXPECT_THROW(reader.read_rows(8, 5, out), uoi::support::InvalidArgument);
}

// Each case patches one 8-byte field of a valid dataset's stripe-0 header.
// Opening or reading the whole dataset must raise IoError: never divide by
// zero, allocate from a header that overflows or outgrows the file, or
// size per-stripe state by a made-up stripe count.
TEST(H5Lite, CorruptHeaderRaisesIoError) {
  struct Patch {
    const char* what;
    std::streamoff offset;  // byte offset of the field in the header
    std::uint64_t value;
  };
  constexpr std::streamoff kRows = 16, kCols = 24, kChunkRows = 32,
                           kStripes = 40;
  const Patch patches[] = {
      {"zero chunk_rows", kChunkRows, 0},
      {"zero n_stripes", kStripes, 0},
      {"rows x cols x 8 overflows", kRows, std::uint64_t{1} << 62},
      {"cols x 8 overflows", kCols, std::uint64_t{1} << 61},
      {"more rows than stripe 0 holds", kRows, 1000},
      {"wrong stripe count", kStripes, 2},
      {"huge stripe count", kStripes, std::uint64_t{1} << 40},
  };
  for (const auto& patch : patches) {
    SCOPED_TRACE(patch.what);
    TempDataset tmp("uoi_corrupt_header");
    uoi::io::write_dataset(tmp.base(), pattern_matrix(37, 5), 10, 3);
    {
      std::fstream f(uoi::io::stripe_path(tmp.base(), 0),
                     std::ios::binary | std::ios::in | std::ios::out);
      ASSERT_TRUE(f);
      f.seekp(patch.offset);
      f.write(reinterpret_cast<const char*>(&patch.value),
              sizeof(patch.value));
      ASSERT_TRUE(f);
    }
    EXPECT_THROW(
        {
          const uoi::io::DatasetReader reader(tmp.base());
          Matrix out;
          reader.read_chunk(0, out);
          reader.read_rows(0, reader.info().rows, out);
        },
        uoi::support::IoError);
  }
}

class DistributionParam : public ::testing::TestWithParam<int> {};

TEST_P(DistributionParam, ConventionalDeliversContiguousBlocks) {
  const int ranks = GetParam();
  TempDataset tmp("uoi_conv_" + std::to_string(ranks));
  const Matrix data = pattern_matrix(41, 4);
  uoi::io::write_dataset(tmp.base(), data, 8, 2);

  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    uoi::io::DistributionTiming timing;
    const auto local =
        uoi::io::conventional_distribute(comm, tmp.base(), &timing);
    // Block r of even slicing, in order.
    const std::size_t begin = 41 * comm.rank() / comm.size();
    const std::size_t end = 41 * (comm.rank() + 1) / comm.size();
    ASSERT_EQ(local.rows.rows(), end - begin);
    for (std::size_t i = 0; i < local.rows.rows(); ++i) {
      EXPECT_EQ(local.global_indices[i], begin + i);
      EXPECT_DOUBLE_EQ(local.rows(i, 1), data(begin + i, 1));
    }
    EXPECT_GE(timing.read_seconds, 0.0);
  });
}

TEST_P(DistributionParam, RandomizedDeliversAPermutation) {
  const int ranks = GetParam();
  TempDataset tmp("uoi_rand_" + std::to_string(ranks));
  const Matrix data = pattern_matrix(53, 3);
  uoi::io::write_dataset(tmp.base(), data, 9, 3);

  // Collect every rank's received global indices and check they partition
  // [0, 53) and that payloads match their labels.
  std::vector<std::vector<std::size_t>> received(
      static_cast<std::size_t>(ranks));
  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const auto local =
        uoi::io::randomized_distribute(comm, tmp.base(), /*seed=*/99);
    for (std::size_t i = 0; i < local.rows.rows(); ++i) {
      const std::size_t g = local.global_indices[i];
      EXPECT_DOUBLE_EQ(local.rows(i, 0), data(g, 0));
      EXPECT_DOUBLE_EQ(local.rows(i, 2), data(g, 2));
    }
    received[static_cast<std::size_t>(comm.rank())] = local.global_indices;
  });
  std::set<std::size_t> all;
  for (const auto& r : received) all.insert(r.begin(), r.end());
  EXPECT_EQ(all.size(), 53u);
}

TEST_P(DistributionParam, RandomizedIsSeedDeterministic) {
  const int ranks = GetParam();
  TempDataset tmp("uoi_seed_" + std::to_string(ranks));
  uoi::io::write_dataset(tmp.base(), pattern_matrix(30, 2), 10, 1);
  std::vector<std::size_t> first, second, different;
  uoi::sim::Cluster::run(ranks, [&](uoi::sim::Comm& comm) {
    const auto a = uoi::io::randomized_distribute(comm, tmp.base(), 7);
    const auto b = uoi::io::randomized_distribute(comm, tmp.base(), 7);
    const auto c = uoi::io::randomized_distribute(comm, tmp.base(), 8);
    if (comm.rank() == 0) {
      first = a.global_indices;
      second = b.global_indices;
      different = c.global_indices;
    }
  });
  EXPECT_EQ(first, second);
  if (ranks > 1) {
    EXPECT_NE(first, different);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistributionParam,
                         ::testing::Values(1, 2, 4, 7));

TEST(Distribution, ReshuffleRearrangesBetweenStages) {
  TempDataset tmp("uoi_reshuffle");
  const Matrix data = pattern_matrix(32, 2);
  uoi::io::write_dataset(tmp.base(), data, 8, 1);
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto stage1 = uoi::io::randomized_distribute(comm, tmp.base(), 1);
    const auto stage2 = uoi::io::reshuffle(comm, stage1, 32, /*seed=*/2);
    // Payloads still match labels after the second shuffle.
    for (std::size_t i = 0; i < stage2.rows.rows(); ++i) {
      EXPECT_DOUBLE_EQ(stage2.rows(i, 1),
                       data(stage2.global_indices[i], 1));
    }
    // And the arrangement actually changed for someone.
    bool changed = stage1.global_indices != stage2.global_indices;
    std::uint64_t flag = changed ? 1 : 0;
    std::vector<std::uint64_t> flags{flag};
    comm.allreduce(flags, uoi::sim::ReduceOp::kMax);
    EXPECT_EQ(flags[0], 1u);
  });
}

TEST(Distribution, RandomizedSpreadsRowsAcrossRanks) {
  // The point of T2: each rank's holding is a random subsample, not a
  // contiguous block.
  TempDataset tmp("uoi_spread");
  uoi::io::write_dataset(tmp.base(), pattern_matrix(64, 2), 16, 1);
  uoi::sim::Cluster::run(4, [&](uoi::sim::Comm& comm) {
    const auto local = uoi::io::randomized_distribute(comm, tmp.base(), 5);
    // With 64 rows over 4 ranks, a contiguous block would span 16; a random
    // subsample almost surely spans much more.
    std::size_t lo = 64, hi = 0;
    for (const auto g : local.global_indices) {
      lo = std::min(lo, g);
      hi = std::max(hi, g);
    }
    EXPECT_GT(hi - lo, 20u);
  });
}

}  // namespace
