// Membership-layer tests: a peer killed mid-run is detected (heartbeat
// silence or retry-budget exhaustion), the survivors agree on a new epoch,
// every operation that targeted the dead node completes with
// GMT_ERR_NODE_LOST instead of hanging, and — with GMT_REPLICATE on — the
// lost partitions are served from their buddy replicas so a retried BFS
// reproduces the exact fault-free answer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <queue>
#include <vector>

#include "common/config.hpp"
#include "gmt/error.hpp"
#include "gmt/gmt.hpp"
#include "graph/generator.hpp"
#include "kernels/bfs_gmt.hpp"
#include "net/faulty_transport.hpp"
#include "runtime/cluster.hpp"
#include "runtime/membership.hpp"
#include "test_util.hpp"

namespace gmt {
namespace {

Config membership_config() {
  Config config = Config::testing();
  config.reliable_transport = true;
  config.membership = true;
  // Generous detection windows: under TSan on a loaded single core a live
  // peer's heartbeats can be scheduled out for tens of milliseconds, and a
  // false suspicion cascades into survivors excluding each other. The
  // tests assert detection semantics; detection speed is benchmarked.
  config.heartbeat_ns = 2'000'000;          // 2 ms
  config.suspect_timeout_ns = 200'000'000;  // 200 ms
  return config;
}

struct HostBfs {
  std::uint64_t visited = 0;
  std::uint64_t edges = 0;
};

HostBfs host_bfs(const graph::Csr& csr, std::uint64_t root) {
  HostBfs result;
  std::vector<bool> seen(csr.vertices, false);
  std::queue<std::uint64_t> queue;
  seen[root] = true;
  queue.push(root);
  result.visited = 1;
  while (!queue.empty()) {
    const std::uint64_t v = queue.front();
    queue.pop();
    for (std::uint64_t e = csr.offsets[v]; e < csr.offsets[v + 1]; ++e) {
      ++result.edges;
      const std::uint64_t u = csr.adjacency[e];
      if (!seen[u]) {
        seen[u] = true;
        queue.push(u);
        ++result.visited;
      }
    }
  }
  return result;
}

std::uint64_t env_u64_or(const char* name, std::uint64_t fallback) {
  if (const char* v = std::getenv(name))
    return std::strtoull(v, nullptr, 0);
  return fallback;
}

// A node that never gets a frame out is suspected via heartbeat silence,
// the survivors commit an exclusion epoch, and operations that targeted its
// partition fail fast with GMT_ERR_NODE_LOST — no hang, no abort.
TEST(Membership, KillCommitsEpochAndFailsOpsNodeLost) {
  Config config = membership_config();
  config.fault.kill_node = 2;
  config.fault.kill_at = 0;  // dark from the first send
  config.fault.seed = 0x5eed;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    // The broadcast registration targets the dead node, so this blocks
    // until detection fails the in-flight ack — detection latency, not
    // forever.
    const gmt_handle h = gmt_new(3 * 4096, Alloc::kPartition);
    while (gmt_membership_epoch() == 0) gmt_yield();
    EXPECT_TRUE(gmt_node_is_live(0));
    EXPECT_TRUE(gmt_node_is_live(1));
    EXPECT_FALSE(gmt_node_is_live(2));
    gmt_clear_error();

    // Partition 2 is homed on the dead node: without replication the write
    // is refused with a sticky error instead of data loss...
    std::uint64_t word = 0xdead;
    gmt_put(h, 2 * 4096, &word, 8);
    EXPECT_EQ(gmt_last_error(), GMT_ERR_NODE_LOST);
    gmt_clear_error();
    // ...and a failed atomic reports a previous value of 0.
    EXPECT_EQ(gmt_atomic_add(h, 2 * 4096 + 64, 7, 8), 0u);
    EXPECT_EQ(gmt_last_error(), GMT_ERR_NODE_LOST);
    gmt_clear_error();

    // The surviving partitions keep full service.
    word = 0xbeef;
    gmt_put(h, 1 * 4096, &word, 8);
    std::uint64_t back = 0;
    gmt_get(h, 1 * 4096, &back, 8);
    EXPECT_EQ(back, 0xbeefu);
    EXPECT_EQ(gmt_last_error(), GMT_ERR_OK);

    // A parfor redistributes over the survivors instead of dropping the
    // dead node's share.
    std::atomic<std::uint64_t> ran{0};
    test::parfor_lambda(90, 1, [&](std::uint64_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 90u);
    EXPECT_EQ(gmt_last_error(), GMT_ERR_OK);

    gmt_free(h);
    gmt_clear_error();  // the free toward the dead partition errors
  });

  // The victim really went dark, and detection ran kill -> suspicion ->
  // epoch commit in that order on the coordinator.
  const net::FaultyTransport* victim = cluster.faulty_transport(2);
  ASSERT_NE(victim, nullptr);
  EXPECT_TRUE(victim->killed());
  rt::MembershipManager* m0 = cluster.node(0).membership();
  ASSERT_NE(m0, nullptr);
  // (No ordering assertion against killed_ns: with a node dark from its
  // first send, the observer's silence timer — baselined at startup — can
  // expire marginally before the victim's first swallowed send stamps its
  // kill time.)
  EXPECT_GT(m0->first_suspect_ns(), 0u);
  EXPECT_GE(m0->last_commit_ns(), m0->first_suspect_ns());

  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GE(snap.gauge(obs::names::kMembEpoch), 1);
  EXPECT_GE(snap.counter(obs::names::kMembEpochCommits), 1u);
  // Nodes 0 and 1 each declared node 2.
  EXPECT_GE(snap.counter(obs::names::kMembPeersLost), 2u);
  EXPECT_GT(snap.counter(obs::names::kMembHeartbeats), 0u);
  EXPECT_GT(snap.counter(obs::names::kMembOpsFailed), 0u);
  EXPECT_GT(snap.counter(obs::names::kMemArraysDegraded), 0u);
  // Replication was off.
  EXPECT_EQ(snap.counter(obs::names::kMemArraysRemapped), 0u);
}

// With GMT_REPLICATE on, a small partitioned array survives the death of a
// partition's home: reads and writes are remapped to the buddy replica and
// the pre-kill contents are intact.
TEST(Membership, ReplicatedArraySurvivesPartitionLoss) {
  Config config = membership_config();
  config.replicate = true;
  config.fault.kill_node = 1;
  config.fault.kill_at = env_u64_or("GMT_FAULT_KILL_AT", 40);
  config.fault.seed = 0x5eed;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  constexpr std::uint64_t kWords = 512;  // spans all three partitions
  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    gmt_handle h = kNullHandle;
    bool ok = false;
    for (int attempt = 0; attempt < 8 && !ok; ++attempt) {
      gmt_clear_error();
      h = gmt_new(kWords * 8, Alloc::kPartition);
      for (std::uint64_t i = 0; i < kWords; ++i)
        gmt_put_value_nb(h, i * 8, i * 3 + 1, 8);
      gmt_wait_commands();
      if (gmt_last_error() == GMT_ERR_OK) {
        ok = true;
        break;
      }
      // Mid-write death: wait out the epoch agreement, then rebuild
      // against the survivor membership.
      while (gmt_membership_epoch() == 0) gmt_yield();
      gmt_clear_error();
      gmt_free(h);
    }
    ASSERT_TRUE(ok);

    // Force the failure to be visible before verifying (the kill may not
    // have tripped during a fast write phase): poke the victim until the
    // epoch commits.
    while (gmt_membership_epoch() == 0) {
      gmt_put_value_nb(h, (kWords / 2) * 8, 1, 8);  // partition 1 traffic
      gmt_wait_commands();
      gmt_yield();
    }
    gmt_clear_error();
    // Re-write, now routed to the replica for the lost partition.
    for (std::uint64_t i = 0; i < kWords; ++i)
      gmt_put_value_nb(h, i * 8, i * 3 + 1, 8);
    gmt_wait_commands();
    EXPECT_EQ(gmt_last_error(), GMT_ERR_OK);

    // Every word — including the lost partition's — reads back exactly.
    for (std::uint64_t i = 0; i < kWords; ++i) {
      std::uint64_t word = 0;
      gmt_get(h, i * 8, &word, 8);
      EXPECT_EQ(word, i * 3 + 1) << "word " << i;
    }
    EXPECT_EQ(gmt_last_error(), GMT_ERR_OK);

    // Atomics execute on the replica too.
    EXPECT_EQ(gmt_atomic_add(h, (kWords / 2) * 8, 5, 8),
              (kWords / 2) * 3 + 1);
    EXPECT_EQ(gmt_last_error(), GMT_ERR_OK);

    gmt_free(h);
    gmt_clear_error();
  });

  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GE(snap.gauge(obs::names::kMembEpoch), 1);
  EXPECT_GT(snap.counter(obs::names::kMemArraysRemapped), 0u);
}

// The kill-mid-BFS soak: a node dies while a BFS is traversing a graph
// whose arrays are replicated. The survivors (a) commit a new epoch,
// (b) retry and reproduce the exact fault-free BFS answer from the buddy
// replicas, and (c) never deadlock. GMT_FAULT_KILL_NODE / GMT_FAULT_KILL_AT
// / GMT_FAULT_SEED override the defaults so check.sh --soak can rotate
// victims and timings.
TEST(Membership, KillMidBfsSurvivorsRecoverExactly) {
  Config config = membership_config();
  config.replicate = true;
  config.fault.kill_node = static_cast<std::uint32_t>(
      env_u64_or("GMT_FAULT_KILL_NODE", 1));
  config.fault.kill_at = env_u64_or("GMT_FAULT_KILL_AT", 600);
  config.fault.seed = env_u64_or("GMT_FAULT_SEED", 0x5eed);
  ASSERT_TRUE(config.validate().empty()) << config.validate();
  const std::uint64_t graph_seed = env_u64_or("GMT_FAULT_SEED", 17);

  const graph::Csr csr = graph::build_csr(
      400, graph::generate_uniform({400, 1, 6, graph_seed}));
  const HostBfs reference = host_bfs(csr, 0);

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    // A small replicated probe array held across the whole run: whenever
    // the kill lands, at least this array is remapped, and the post-epoch
    // write/read below exercises the replica path end to end.
    constexpr std::uint64_t kProbeWords = 96;
    const gmt_handle probe = gmt_new(kProbeWords * 8, Alloc::kPartition);

    kernels::BfsResult bfs;
    bool ok = false;
    for (int attempt = 0; attempt < 8 && !ok; ++attempt) {
      gmt_clear_error();
      graph::DistGraph dist = graph::DistGraph::build(csr);
      if (gmt_last_error() == GMT_ERR_OK) {
        bfs = kernels::bfs_gmt(dist, 0);
        ok = gmt_last_error() == GMT_ERR_OK;
      }
      gmt_clear_error();
      dist.destroy();
      gmt_clear_error();
      if (!ok && !gmt_node_is_live(config.fault.kill_node)) {
        // Dead node noticed: wait for the epoch so the retry partitions
        // its parfors over the survivors only.
        while (gmt_membership_epoch() == 0) gmt_yield();
      }
    }
    ASSERT_TRUE(ok) << "BFS never completed cleanly";
    EXPECT_EQ(bfs.visited, reference.visited);
    EXPECT_EQ(bfs.edges_traversed, reference.edges);

    // A late kill_at may only trip after the BFS finished: the victim's
    // heartbeats alone exhaust it, so waiting for the epoch terminates.
    while (gmt_membership_epoch() == 0) gmt_yield();
    gmt_clear_error();
    for (std::uint64_t i = 0; i < kProbeWords; ++i)
      gmt_put_value_nb(probe, i * 8, i ^ 0x55, 8);
    gmt_wait_commands();
    for (std::uint64_t i = 0; i < kProbeWords; ++i) {
      std::uint64_t word = 0;
      gmt_get(probe, i * 8, &word, 8);
      EXPECT_EQ(word, i ^ 0x55) << "probe word " << i;
    }
    EXPECT_EQ(gmt_last_error(), GMT_ERR_OK);
    gmt_free(probe);
    gmt_clear_error();
  });

  const net::FaultyTransport* victim =
      cluster.faulty_transport(config.fault.kill_node);
  ASSERT_NE(victim, nullptr);
  EXPECT_TRUE(victim->killed());
  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GE(snap.gauge(obs::names::kMembEpoch), 1);
  EXPECT_GT(snap.counter(obs::names::kMemArraysRemapped), 0u);
}

// Without replication the data on the lost partitions is gone: the run must
// still terminate (no deadlock), commit the exclusion epoch, and surface
// the loss as a sticky error rather than fabricate a result.
TEST(Membership, KillMidBfsWithoutReplicationTerminatesWithError) {
  Config config = membership_config();
  config.fault.kill_node = 1;
  config.fault.kill_at = 60;
  config.fault.seed = 0x5eed;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  const graph::Csr csr = graph::build_csr(
      400, graph::generate_uniform({400, 1, 6, /*seed=*/17}));

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    // The victim dies within a few milliseconds (its heartbeats alone
    // reach kill_at); once the survivors exclude it, every build/BFS pass
    // touches its unreplicated partitions and must latch the loss.
    std::uint32_t err = GMT_ERR_OK;
    for (int attempt = 0; attempt < 8 && err == GMT_ERR_OK; ++attempt) {
      graph::DistGraph dist = graph::DistGraph::build(csr);
      kernels::bfs_gmt(dist, 0);
      err = gmt_last_error();
      gmt_clear_error();
      dist.destroy();
      gmt_clear_error();
    }
    while (gmt_membership_epoch() == 0) gmt_yield();
    EXPECT_EQ(err, GMT_ERR_NODE_LOST);
  });

  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GE(snap.gauge(obs::names::kMembEpoch), 1);
  EXPECT_GT(snap.counter(obs::names::kMemArraysDegraded), 0u);
  EXPECT_GT(snap.counter(obs::names::kMembOpsFailed), 0u);
}

}  // namespace
}  // namespace gmt
