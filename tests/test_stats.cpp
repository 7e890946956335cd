// Tests for the runtime statistics: per-node registry counters and the
// public gmt::stats_report().
#include <gtest/gtest.h>

#include <algorithm>

#include "gmt/gmt.hpp"
#include "gmt/obs.hpp"
#include "obs/metrics.hpp"
#include "runtime/cluster.hpp"
#include "test_util.hpp"

namespace gmt::rt {
namespace {

namespace names = obs::names;

TEST(StatsReport, CountersReflectWork) {
  Cluster cluster(2, Config::testing());
  test::run_task(cluster, [] {
    const gmt_handle h = gmt_new(8 * 256, Alloc::kPartition);
    test::parfor_lambda(256, 4, [&](std::uint64_t i) {
      gmt_put_value(h, i * 8, i, 8);
    });
    gmt_free(h);
  });
  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GE(snap.counter(names::kIterationsExecuted), 257u);  // 256 + root
  EXPECT_GT(snap.counter(names::kTasksExecuted), 0u);
  EXPECT_GT(snap.counter(names::kCtxSwitches), 0u);
  EXPECT_GT(snap.counter(names::kRemoteOps), 0u);
  EXPECT_GT(cluster.total_network_messages(), 0u);
  // Every remote command was executed somewhere.
  EXPECT_GE(snap.counter(names::kCmdsExecuted),
            snap.counter(names::kRemoteOps));
}

TEST(StatsReport, AggregationCoalesces) {
  Cluster cluster(2, Config::testing());
  test::run_task(cluster, [] {
    const gmt_handle h = gmt_new(8 * 2048, Alloc::kRemote);
    // A burst of fine-grained remote puts from many tasks: far more
    // commands than network messages.
    test::parfor_lambda(
        512, 8, [&](std::uint64_t i) { gmt_put_value(h, (i % 2048) * 8, i, 8); },
        Spawn::kLocal);
    gmt_free(h);
  });
  const std::uint64_t messages = cluster.total_network_messages();
  ASSERT_GT(messages, 0u);
  const double commands_per_message =
      static_cast<double>(
          test::cluster_snapshot(cluster).counter(names::kRemoteOps)) /
      static_cast<double>(messages);
  EXPECT_GT(commands_per_message, 2.0);
}

TEST(StatsReport, FormatIsComplete) {
  obs::clear_retired_snapshots();  // earlier clusters must not leak in
  Cluster cluster(2, Config::testing());
  test::run_task(cluster, [] {
    const gmt_handle h = gmt_new(1024, Alloc::kPartition);
    gmt_put_value(h, 512, 1, 8);
    gmt_free(h);
  });
  const std::string report = gmt::stats_report();
  EXPECT_NE(report.find("node0"), std::string::npos);
  EXPECT_NE(report.find("node1"), std::string::npos);
  EXPECT_NE(report.find("network:"), std::string::npos);
  EXPECT_NE(report.find("commands/message"), std::string::npos);
  // One row per node plus header and summary.
  EXPECT_GE(std::count(report.begin(), report.end(), '\n'), 4);
}

TEST(StatsReport, LocalFastPathShowsInCounters) {
  Cluster cluster(1, Config::testing());
  test::run_task(cluster, [] {
    const gmt_handle h = gmt_new(1024, Alloc::kLocal);
    for (int i = 0; i < 50; ++i) gmt_put_value(h, 8 * (i % 100), i, 8);
    gmt_free(h);
  });
  EXPECT_GE(test::cluster_snapshot(cluster).counter(names::kLocalOps), 50u);
}

TEST(StatsReport, LocalOnlyRunOmitsRatioRow) {
  // A single-node run never touches the network: the report must drop the
  // commands/message row instead of printing 0, which would read as
  // "aggregation did nothing" rather than "there was nothing to aggregate".
  obs::clear_retired_snapshots();
  Cluster cluster(1, Config::testing());
  test::run_task(cluster, [] {
    const gmt_handle h = gmt_new(1024, Alloc::kLocal);
    for (int i = 0; i < 20; ++i) gmt_put_value(h, 8 * i, i, 8);
    gmt_free(h);
  });
  EXPECT_EQ(cluster.total_network_messages(), 0u);

  const std::string report = gmt::stats_report();
  EXPECT_EQ(report.find("commands/message"), std::string::npos);
  EXPECT_NE(report.find("no remote traffic"), std::string::npos);
}

}  // namespace
}  // namespace gmt::rt
