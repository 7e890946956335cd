// Source-side combining tests: exact histogram counts with the combining
// table on and off (both kernel strategies), last-writer-wins dedup for
// repeated puts interleaved with ordinary traffic, fire-and-forget atomics
// on replicated arrays, combined commands addressed to a peer that dies
// mid-run failing with GMT_ERR_NODE_LOST (never hanging, never silently
// succeeding), and exact results through a lossy fault-injected network.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "gmt/error.hpp"
#include "gmt/gmt.hpp"
#include "kernels/histogram_gmt.hpp"
#include "net/faulty_transport.hpp"
#include "runtime/cluster.hpp"
#include "test_util.hpp"

namespace gmt {
namespace {

Config combine_config(bool combine) {
  Config config = Config::testing();
  config.num_workers = 2;
  config.combine = combine;
  config.combine_table = 64;
  return config;
}

std::vector<std::uint64_t> host_histogram(
    const std::vector<std::uint64_t>& keys, std::uint64_t buckets) {
  std::vector<std::uint64_t> counts(buckets, 0);
  for (const std::uint64_t k : keys) ++counts[k];
  return counts;
}

struct HistCase {
  const char* name;
  bool combine;
  kernels::HistogramMode mode;
};

void PrintTo(const HistCase& c, std::ostream* os) { *os << c.name; }

class HistogramExact : public ::testing::TestWithParam<HistCase> {};

// The proof-kernel correctness matrix: skewed keys, both strategies, with
// and without the combining table — bit-exact counts in every cell.
TEST_P(HistogramExact, MatchesHostCounts) {
  const HistCase& hc = GetParam();
  Config config = combine_config(hc.combine);
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  constexpr std::uint64_t kKeys = 40'000;
  constexpr std::uint64_t kBuckets = 97;  // non-power-of-two on purpose
  const std::vector<std::uint64_t> keys =
      kernels::make_zipf_keys(kKeys, kBuckets, 1.1, /*seed=*/0x2fll);
  const std::vector<std::uint64_t> expected = host_histogram(keys, kBuckets);

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    const gmt_handle kh = kernels::upload_keys(keys);
    const kernels::HistogramResult result =
        kernels::histogram_gmt(kh, kKeys, kBuckets, hc.mode);
    std::vector<std::uint64_t> counts(kBuckets, 0);
    gmt_get(result.counts, 0, counts.data(), kBuckets * 8);
    std::uint64_t total = 0;
    for (std::uint64_t b = 0; b < kBuckets; ++b) {
      EXPECT_EQ(counts[b], expected[b]) << "bucket " << b;
      total += counts[b];
    }
    EXPECT_EQ(total, kKeys);
    gmt_free(result.counts);
    gmt_free(kh);
  });

  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  const std::uint64_t hits = snap.counter(obs::names::kAggCombineHits);
  const std::uint64_t installs = snap.counter(obs::names::kAggCombineInstalls);
  if (hc.combine && hc.mode == kernels::HistogramMode::kDirect) {
    // Zipf 1.1 direct increments must actually combine: hot buckets hit
    // resident entries, and every hit is a command that never hit the wire.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(installs, 0u);
  } else if (!hc.combine) {
    EXPECT_EQ(installs, 0u);
    EXPECT_EQ(hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HistogramExact,
    ::testing::Values(
        HistCase{"DirectCombineOff", false, kernels::HistogramMode::kDirect},
        HistCase{"DirectCombineOn", true, kernels::HistogramMode::kDirect},
        HistCase{"TwoPhaseCombineOff", false,
                 kernels::HistogramMode::kTwoPhase},
        HistCase{"TwoPhaseCombineOn", true,
                 kernels::HistogramMode::kTwoPhase}),
    [](const ::testing::TestParamInfo<HistCase>& info) {
      return std::string(info.param.name);
    });

// Repeated non-blocking puts to the same cell dedup to the last value, and
// the drain-before-ordinary-append rule keeps held entries ordered against
// blocking traffic on the same destination: a blocking put issued between
// two held puts can never be overtaken by the first one.
TEST(Combine, PutDedupLastWriterWins) {
  Config config = combine_config(true);
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  rt::Cluster cluster(2, config);
  test::run_task(cluster, [&] {
    const gmt_handle h = gmt_new(2 * 4096, Alloc::kPartition);
    const std::uint64_t remote = 4096;  // partition 1: always off-node

    for (std::uint64_t i = 0; i <= 99; ++i)
      gmt_put_value_nb(h, remote, i, 8);
    gmt_wait_commands();
    std::uint64_t back = 0;
    gmt_get(h, remote, &back, 8);
    EXPECT_EQ(back, 99u);

    // Held put, then a blocking put to the same cell (drains the held
    // entry first), then another held put: final value is the last write.
    gmt_put_value_nb(h, remote, 7, 8);
    std::uint64_t word = 8;
    gmt_put(h, remote, &word, 8);
    gmt_put_value_nb(h, remote, 9, 8);
    gmt_wait_commands();
    gmt_get(h, remote, &back, 8);
    EXPECT_EQ(back, 9u);

    // 4-byte puts dedup independently of 8-byte ones (width is part of
    // the combining key via flags).
    gmt_put_value_nb(h, remote + 64, 0x11111111, 4);
    gmt_put_value_nb(h, remote + 64, 0x2222, 4);
    gmt_wait_commands();
    std::uint32_t back32 = 0;
    gmt_get(h, remote + 64, &back32, 4);
    EXPECT_EQ(back32, 0x2222u);
    gmt_free(h);
  });

  EXPECT_GT(test::cluster_snapshot(cluster).counter(
                obs::names::kAggCombineHits),
            0u);
}

// Fire-and-forget atomics against a replicated array bypass combining and
// degrade to the blocking mirror-updating path — totals stay exact.
TEST(Combine, ReplicatedArraysBypassCombining) {
  Config config = combine_config(true);
  config.replicate = true;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    const gmt_handle h = gmt_new(3 * 64, Alloc::kPartition);
    // One writer, local and remote cells interleaved. (Concurrent writers
    // to a single replicated cell are outside the replication contract:
    // write-through mirror updates from different nodes are unordered.)
    for (std::uint64_t i = 0; i < 60; ++i) {
      gmt_atomic_inc(h, (i % 3) * 64, 8);
      gmt_wait_commands();
    }
    for (std::uint64_t p = 0; p < 3; ++p) {
      std::uint64_t back = 0;
      gmt_get(h, p * 64, &back, 8);
      EXPECT_EQ(back, 20u) << "partition " << p;
    }
    gmt_free(h);
  });
}

// A peer that goes dark mid-stream while combined increments are in flight:
// held entries flushed into the void must be failed by the membership sweep
// — gmt_wait_commands returns with GMT_ERR_NODE_LOST, it does not hang and
// the loss is not silent. After the epoch commits, further combined ops
// fail fast and the survivors keep exact counts.
TEST(Combine, KillMidStreamFailsCombinedOpsNodeLost) {
  Config config = combine_config(true);
  config.reliable_transport = true;
  config.membership = true;
  config.heartbeat_ns = 2'000'000;          // 2 ms
  config.suspect_timeout_ns = 200'000'000;  // 200 ms
  config.fault.kill_node = 2;
  config.fault.kill_at = 50;  // dies mid-run, with traffic in flight
  config.fault.seed = 0x5eed;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    const gmt_handle h = gmt_new(3 * 4096, Alloc::kPartition);
    // Pump combined increments at the doomed partition until the failure
    // surfaces. Every round completes (merged ops ack immediately, held
    // ones are failed by detection) — liveness is the assertion.
    std::uint64_t rounds = 0;
    while (gmt_last_error() == GMT_ERR_OK && rounds < 1'000'000) {
      for (int i = 0; i < 32; ++i) gmt_atomic_inc(h, 2 * 4096, 8);
      gmt_wait_commands();
      ++rounds;
    }
    EXPECT_EQ(gmt_last_error(), GMT_ERR_NODE_LOST);
    gmt_clear_error();

    while (gmt_membership_epoch() == 0) gmt_yield();
    EXPECT_FALSE(gmt_node_is_live(2));
    gmt_clear_error();

    // Post-epoch, combined ops to the dead partition fail fast.
    gmt_atomic_add_nb(h, 2 * 4096 + 64, 5, 8);
    gmt_wait_commands();
    EXPECT_EQ(gmt_last_error(), GMT_ERR_NODE_LOST);
    gmt_clear_error();

    // The surviving partition still counts exactly through the combiner.
    for (int i = 0; i < 100; ++i) gmt_atomic_inc(h, 1 * 4096, 8);
    gmt_wait_commands();
    std::uint64_t back = 0;
    gmt_get(h, 1 * 4096, &back, 8);
    EXPECT_EQ(back, 100u);
    EXPECT_EQ(gmt_last_error(), GMT_ERR_OK);
    gmt_free(h);
  });

  EXPECT_TRUE(cluster.faulty_transport(2)->killed());
  EXPECT_GT(
      test::cluster_snapshot(cluster).counter(obs::names::kMembOpsFailed),
      0u);
}

// The fault matrix with combining on: drops, duplicates, corruption and
// reordering under the reliability layer, and the skewed direct histogram
// still lands bit-exact counts — combining must not break exactly-once.
TEST(Combine, LossyNetworkExactCounts) {
  Config config = combine_config(true);
  config.reliable_transport = true;
  config.fault.drop = 0.05;
  config.fault.duplicate = 0.02;
  config.fault.corrupt = 0.01;
  config.fault.reorder = 0.02;
  config.fault.seed = 0x5eed;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  constexpr std::uint64_t kKeys = 20'000;
  constexpr std::uint64_t kBuckets = 64;
  const std::vector<std::uint64_t> keys =
      kernels::make_zipf_keys(kKeys, kBuckets, 1.0, /*seed=*/0xfa117);
  const std::vector<std::uint64_t> expected = host_histogram(keys, kBuckets);

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    const gmt_handle kh = kernels::upload_keys(keys);
    const kernels::HistogramResult result = kernels::histogram_gmt(
        kh, kKeys, kBuckets, kernels::HistogramMode::kDirect);
    std::vector<std::uint64_t> counts(kBuckets, 0);
    gmt_get(result.counts, 0, counts.data(), kBuckets * 8);
    for (std::uint64_t b = 0; b < kBuckets; ++b)
      EXPECT_EQ(counts[b], expected[b]) << "bucket " << b;
    gmt_free(result.counts);
    gmt_free(kh);
  });

  const net::FaultCountersSnapshot faults = cluster.total_fault_counters();
  EXPECT_GT(faults.total(), 0u);
  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GT(snap.counter(obs::names::kAggCombineHits), 0u);
  EXPECT_GT(snap.counter(obs::names::kRelRetransmits), 0u);
}

}  // namespace
}  // namespace gmt
