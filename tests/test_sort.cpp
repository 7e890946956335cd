// Histogram-sort and prefix-scan tests: the gmt_scan collective against a
// host oracle (stripe boundaries, in-place, sub-ranges), the sort's
// randomized property suite (output bit-exact against std::sort, per-bucket
// offsets consistent with the host histogram), empty/single-bucket/slice-
// boundary edges, the task-exit drain regression the old histogram zeroing
// relied on, and a kill-a-node-mid-sort fault case that must recover an
// exact result from replicas after the membership epoch commits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/config.hpp"
#include "gmt/error.hpp"
#include "gmt/gmt.hpp"
#include "kernels/histogram_gmt.hpp"
#include "kernels/sort_gmt.hpp"
#include "net/faulty_transport.hpp"
#include "runtime/cluster.hpp"
#include "runtime/collectives.hpp"
#include "test_util.hpp"

namespace gmt {
namespace {

Config sort_config(bool combine) {
  Config config = Config::testing();
  config.num_workers = 2;
  config.combine = combine;
  config.combine_table = 64;
  return config;
}

// Chunked read-back of an n x u64 global array.
std::vector<std::uint64_t> read_u64(gmt_handle h, std::uint64_t n) {
  std::vector<std::uint64_t> out(n);
  constexpr std::uint64_t kChunk = 4096;
  for (std::uint64_t i = 0; i < n; i += kChunk) {
    const std::uint64_t count = n - i < kChunk ? n - i : kChunk;
    gmt_get(h, i * 8, out.data() + i, count * 8);
  }
  return out;
}

std::vector<std::uint64_t> host_histogram(
    const std::vector<std::uint64_t>& keys, std::uint64_t buckets) {
  std::vector<std::uint64_t> counts(buckets, 0);
  for (const std::uint64_t k : keys) ++counts[k];
  return counts;
}

std::vector<std::uint64_t> host_exclusive_scan(
    const std::vector<std::uint64_t>& in) {
  std::vector<std::uint64_t> out(in.size());
  std::uint64_t running = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = running;
    running += in[i];
  }
  return out;
}

// Uploads keys, sorts, and checks the full contract against the host:
// sorted output bit-exact against std::sort, offsets equal to the exclusive
// scan of the host histogram (so per-bucket counts derived from adjacent
// offsets sum to n), and the phase timers populated.
void check_sort_matches_oracle(const std::vector<std::uint64_t>& keys,
                               std::uint64_t buckets,
                               kernels::HistogramMode mode) {
  const gmt_handle kh = kernels::upload_keys(keys);
  kernels::SortResult result =
      kernels::sort_gmt(kh, keys.size(), buckets, mode);
  ASSERT_EQ(gmt_last_error(), GMT_ERR_OK);

  std::vector<std::uint64_t> oracle = keys;
  std::sort(oracle.begin(), oracle.end());
  if (keys.empty()) {
    EXPECT_EQ(result.sorted, kNullHandle);
  } else {
    ASSERT_NE(result.sorted, kNullHandle);
    const std::vector<std::uint64_t> sorted =
        read_u64(result.sorted, keys.size());
    // Bit-exact match: bucket-internal order is vacuous (equal keys), so
    // the nondeterministic per-task window-claim order cannot show here.
    EXPECT_EQ(sorted, oracle);
  }

  const std::vector<std::uint64_t> expected_offsets =
      host_exclusive_scan(host_histogram(keys, buckets));
  const std::vector<std::uint64_t> offsets = read_u64(result.offsets, buckets);
  EXPECT_EQ(offsets, expected_offsets);

  kernels::sort_free(result);
  if (kh != kNullHandle) gmt_free(kh);
}

// ---------------------------------------------------------------- scan --

class Scan : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  rt::Cluster cluster_{GetParam(), Config::testing()};
};

TEST_P(Scan, MatchesHostAcrossStripeBoundaries) {
  test::run_task(cluster_, [] {
    // 512 is the stripe size: cover below, at, just above, and far above.
    for (const std::uint64_t count : {1ull, 5ull, 511ull, 512ull, 513ull,
                                      2500ull}) {
      std::mt19937_64 rng(count * 77 + 1);
      std::vector<std::uint64_t> in(count);
      for (auto& v : in) v = rng() % 1000;
      const gmt_handle src = gmt_new(count * 8, Alloc::kPartition);
      const gmt_handle dst = gmt_new(count * 8, Alloc::kPartition);
      gmt_put(src, 0, in.data(), count * 8);

      const std::uint64_t total = gmt_scan(src, dst, count);
      std::uint64_t expected_total = 0;
      for (const std::uint64_t v : in) expected_total += v;
      EXPECT_EQ(total, expected_total) << "count " << count;
      EXPECT_EQ(read_u64(dst, count), host_exclusive_scan(in))
          << "count " << count;
      gmt_free(src);
      gmt_free(dst);
    }
  });
}

TEST_P(Scan, EmptyRangeReturnsZeroAndWritesNothing) {
  test::run_task(cluster_, [] {
    const gmt_handle h = gmt_new(8 * 8, Alloc::kPartition);
    coll::fill_u64(h, 0, 8, 0xdead);
    EXPECT_EQ(gmt_scan(h, h, 0), 0u);
    for (const std::uint64_t v : read_u64(h, 8)) EXPECT_EQ(v, 0xdeadu);
    gmt_free(h);
  });
}

TEST_P(Scan, InPlaceAndSubRange) {
  test::run_task(cluster_, [] {
    constexpr std::uint64_t kCount = 1500;
    std::mt19937_64 rng(9);
    std::vector<std::uint64_t> in(kCount);
    for (auto& v : in) v = rng() % 50;

    // In-place: src == dst over the identical range.
    const gmt_handle h = gmt_new(kCount * 8, Alloc::kPartition);
    gmt_put(h, 0, in.data(), kCount * 8);
    gmt_scan(h, h, kCount);
    EXPECT_EQ(read_u64(h, kCount), host_exclusive_scan(in));

    // Sub-range with distinct firsts: scan in[100..700) into out[10..610),
    // leaving the cells around the destination window untouched.
    gmt_put(h, 0, in.data(), kCount * 8);
    const gmt_handle out = gmt_new(700 * 8, Alloc::kPartition);
    coll::fill_u64(out, 0, 700, 7);
    const std::vector<std::uint64_t> window(in.begin() + 100,
                                            in.begin() + 700);
    const std::uint64_t total = gmt_scan(h, out, 600, 100, 10);
    std::uint64_t expected_total = 0;
    for (const std::uint64_t v : window) expected_total += v;
    EXPECT_EQ(total, expected_total);
    const std::vector<std::uint64_t> expected = host_exclusive_scan(window);
    const std::vector<std::uint64_t> got = read_u64(out, 700);
    for (std::uint64_t i = 0; i < 700; ++i) {
      if (i < 10 || i >= 610)
        EXPECT_EQ(got[i], 7u) << "clobbered cell " << i;
      else
        EXPECT_EQ(got[i], expected[i - 10]) << "cell " << i;
    }
    gmt_free(h);
    gmt_free(out);
  });
}

INSTANTIATE_TEST_SUITE_P(Nodes, Scan, ::testing::Values(1u, 3u));

// ---------------------------------------------------------------- sort --

struct SortCase {
  const char* name;
  bool combine;
  kernels::HistogramMode mode;
};

void PrintTo(const SortCase& c, std::ostream* os) { *os << c.name; }

class SortExact : public ::testing::TestWithParam<SortCase> {};

// The headline contract on skewed keys: both counting strategies, with and
// without the combining table, produce output bit-exact against std::sort.
TEST_P(SortExact, MatchesStdSortOracle) {
  const SortCase& sc = GetParam();
  Config config = sort_config(sc.combine);
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  constexpr std::uint64_t kKeys = 30'000;
  constexpr std::uint64_t kBuckets = 97;  // non-power-of-two on purpose
  const std::vector<std::uint64_t> keys =
      kernels::make_zipf_keys(kKeys, kBuckets, 1.1, /*seed=*/0x50e7);

  rt::Cluster cluster(3, config);
  test::run_task(cluster,
                 [&] { check_sort_matches_oracle(keys, kBuckets, sc.mode); });
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SortExact,
    ::testing::Values(
        SortCase{"DirectCombineOff", false, kernels::HistogramMode::kDirect},
        SortCase{"DirectCombineOn", true, kernels::HistogramMode::kDirect},
        SortCase{"TwoPhaseCombineOff", false,
                 kernels::HistogramMode::kTwoPhase},
        SortCase{"TwoPhaseCombineOn", true,
                 kernels::HistogramMode::kTwoPhase}),
    [](const ::testing::TestParamInfo<SortCase>& info) {
      return std::string(info.param.name);
    });

// Randomized property sweep: sizes straddling the 8192-key slice boundary,
// bucket counts from 1 (every key identical destination: the single-bucket
// degenerate case) to more buckets than keys, uniform and skewed draws.
TEST(Sort, RandomizedPropertySuite) {
  Config config = sort_config(true);
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  struct Shape {
    std::uint64_t n;
    std::uint64_t buckets;
    double skew;
  };
  const Shape shapes[] = {
      {1, 1, 0.0},       {17, 1, 0.0},      {1000, 1300, 0.0},
      {8192, 64, 0.5},   {8193, 64, 1.3},   {20'000, 513, 1.0},
      {4096, 3, 1.5},
  };

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    std::uint32_t which = 0;
    for (const Shape& shape : shapes) {
      const std::vector<std::uint64_t> keys = kernels::make_zipf_keys(
          shape.n, shape.buckets, shape.skew, /*seed=*/0xabc + which);
      const kernels::HistogramMode mode =
          which % 2 ? kernels::HistogramMode::kTwoPhase
                    : kernels::HistogramMode::kDirect;
      check_sort_matches_oracle(keys, shape.buckets, mode);
      ++which;
    }
  });
}

// n = 0: upload of an empty key set has no backing array (kNullHandle),
// the histogram spawns zero slices, and the sort returns a null sorted
// handle with all-zero offsets instead of tripping gmt_new(0).
TEST(Sort, EmptyInput) {
  Config config = sort_config(true);
  rt::Cluster cluster(2, config);
  test::run_task(cluster, [] {
    const std::vector<std::uint64_t> none;
    EXPECT_EQ(kernels::upload_keys(none), kNullHandle);

    const kernels::HistogramResult hist = kernels::histogram_gmt(
        kNullHandle, 0, 13, kernels::HistogramMode::kDirect);
    for (const std::uint64_t c : read_u64(hist.counts, 13)) EXPECT_EQ(c, 0u);
    gmt_free(hist.counts);

    check_sort_matches_oracle(none, 13, kernels::HistogramMode::kTwoPhase);
  });
}

// Regression for the contract the old histogram zeroing leaned on: a parfor
// body may finish with fire-and-forget puts still in flight, and the
// implicit end-of-task wait must drain them (combining table included)
// before the parfor returns — a subsequent reader can never observe the old
// cell values. Pinned with combining both off and on, since held
// combining-table entries complete later than plain aggregated commands.
TEST(Sort, TaskExitDrainsNonBlockingPuts) {
  for (const bool combine : {false, true}) {
    Config config = sort_config(combine);
    ASSERT_TRUE(config.validate().empty()) << config.validate();
    rt::Cluster cluster(3, config);
    test::run_task(cluster, [combine] {
      constexpr std::uint64_t kCells = 3000;
      const gmt_handle h = gmt_new(kCells * 8, Alloc::kPartition);
      coll::fill_u64(h, 0, kCells, ~0ull);
      test::parfor_lambda(kCells, 0, [&](std::uint64_t i) {
        gmt_put_value_nb(h, i * 8, i ^ 0x9e37, 8);
        // No gmt_wait_commands() on purpose: task exit must drain.
      });
      const std::vector<std::uint64_t> cells = read_u64(h, kCells);
      for (std::uint64_t i = 0; i < kCells; ++i)
        ASSERT_EQ(cells[i], i ^ 0x9e37) << "cell " << i << " combine "
                                        << combine;
      gmt_free(h);
    });
  }
}

// Kill a node mid-sort. With replication on, the lost partitions (keys,
// counts, cursors, output) remap to replicas at the epoch change; a retry
// after the degraded run must produce a bit-exact sorted result — the
// fault-matrix version of the acceptance criterion. Mirrors the
// KillMidBfsSurvivorsRecoverExactly structure.
TEST(Sort, KillMidSortRecoversExactly) {
  Config config = sort_config(true);
  config.reliable_transport = true;
  config.membership = true;
  config.replicate = true;
  config.heartbeat_ns = 2'000'000;          // 2 ms
  config.suspect_timeout_ns = 200'000'000;  // 200 ms
  config.fault.kill_node = 2;
  config.fault.kill_at = 400;  // dies with shuffle traffic in flight
  config.fault.seed = 0x5eed;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  constexpr std::uint64_t kKeys = 25'000;
  constexpr std::uint64_t kBuckets = 128;
  const std::vector<std::uint64_t> keys =
      kernels::make_zipf_keys(kKeys, kBuckets, 1.0, /*seed=*/0xdead);
  std::vector<std::uint64_t> oracle = keys;
  std::sort(oracle.begin(), oracle.end());

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    const gmt_handle kh = kernels::upload_keys(keys);
    ASSERT_EQ(gmt_last_error(), GMT_ERR_OK) << "upload before the kill";

    bool ok = false;
    std::vector<std::uint64_t> sorted;
    for (int attempt = 0; attempt < 8 && !ok; ++attempt) {
      gmt_clear_error();
      kernels::SortResult result = kernels::sort_gmt(
          kh, kKeys, kBuckets, kernels::HistogramMode::kDirect);
      if (gmt_last_error() == GMT_ERR_OK && result.sorted != kNullHandle) {
        sorted = read_u64(result.sorted, kKeys);
        ok = gmt_last_error() == GMT_ERR_OK;
      }
      gmt_clear_error();
      kernels::sort_free(result);
      gmt_clear_error();
      if (!ok && !gmt_node_is_live(config.fault.kill_node)) {
        // Dead node noticed: wait for the epoch so the retry partitions
        // its parfors over the survivors only.
        while (gmt_membership_epoch() == 0) gmt_yield();
      }
    }
    ASSERT_TRUE(ok) << "sort never completed cleanly";
    EXPECT_EQ(sorted, oracle);

    // A late kill_at may only trip after the sort finished; waiting for
    // the epoch keeps the post-conditions below meaningful.
    while (gmt_membership_epoch() == 0) gmt_yield();
    gmt_clear_error();
    gmt_free(kh);
    gmt_clear_error();
  });

  const net::FaultyTransport* victim =
      cluster.faulty_transport(config.fault.kill_node);
  ASSERT_NE(victim, nullptr);
  EXPECT_TRUE(victim->killed());
  EXPECT_GE(test::cluster_snapshot(cluster).gauge(obs::names::kMembEpoch), 1);
}

}  // namespace
}  // namespace gmt
