// Reliability-layer tests: CRC framing, the sequence/ack state machine,
// the fault-injecting transport decorator, and the full runtime surviving
// a hostile network (drops, duplicates, corruption, reordering) with
// bit-identical results.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <queue>
#include <vector>

#include "common/config.hpp"
#include "common/crc32.hpp"
#include "kernels/bfs_gmt.hpp"
#include "kernels/chma_gmt.hpp"
#include "net/faulty_transport.hpp"
#include "net/frame.hpp"
#include "net/inproc_transport.hpp"
#include "obs/metrics.hpp"
#include "runtime/cluster.hpp"
#include "runtime/reliable_channel.hpp"
#include "test_util.hpp"

namespace gmt {
namespace {

// ---- CRC32C ----

TEST(Crc32c, KnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix, iSCSI).
  EXPECT_EQ(crc32c("123456789", 9), 0xe3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(1537);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (std::size_t split : {0ul, 1ul, 7ul, 512ul, 1536ul, 1537ul}) {
    const std::uint32_t first = crc32c(data.data(), split);
    const std::uint32_t chained =
        crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chained, whole) << "split " << split;
  }
}

TEST(Crc32c, SingleBitFlipChangesValue) {
  std::vector<std::uint8_t> data(256, 0xab);
  const std::uint32_t reference = crc32c(data.data(), data.size());
  for (std::size_t bit : {0ul, 777ul, 2047ul}) {
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32c(data.data(), data.size()), reference);
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// ---- frame seal/parse ----

std::vector<std::uint8_t> make_data_frame(std::uint32_t src, std::uint64_t seq,
                                          std::uint64_t ack,
                                          const std::vector<std::uint8_t>&
                                              payload) {
  std::vector<std::uint8_t> frame(net::kFrameHeaderSize);
  frame.insert(frame.end(), payload.begin(), payload.end());
  net::FrameHeader header;
  header.type = static_cast<std::uint8_t>(net::FrameType::kData);
  header.src = src;
  header.seq = seq;
  header.ack = ack;
  net::seal_frame(frame, header);
  return frame;
}

TEST(Frame, SealParseRoundTrip) {
  const std::vector<std::uint8_t> payload = {10, 20, 30, 40, 50};
  const std::vector<std::uint8_t> frame = make_data_frame(3, 42, 7, payload);
  net::FrameHeader header;
  ASSERT_TRUE(net::parse_frame(frame, &header));
  EXPECT_EQ(header.src, 3u);
  EXPECT_EQ(header.seq, 42u);
  EXPECT_EQ(header.ack, 7u);
  EXPECT_EQ(header.payload_len, payload.size());
  EXPECT_EQ(0, std::memcmp(frame.data() + net::kFrameHeaderSize,
                           payload.data(), payload.size()));
}

TEST(Frame, AnySingleBitFlipRejected) {
  const std::vector<std::uint8_t> good =
      make_data_frame(1, 9, 0, {1, 2, 3, 4});
  net::FrameHeader header;
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = good;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(net::parse_frame(bad, &header)) << "bit " << bit;
  }
}

TEST(Frame, TruncationAndGarbageRejected) {
  std::vector<std::uint8_t> frame = make_data_frame(0, 1, 0, {1, 2, 3});
  net::FrameHeader header;
  frame.pop_back();  // torn tail
  EXPECT_FALSE(net::parse_frame(frame, &header));
  EXPECT_FALSE(net::parse_frame({1, 2, 3}, &header));  // way too short
  std::vector<std::uint8_t> noise(64, 0x5a);
  EXPECT_FALSE(net::parse_frame(noise, &header));  // no magic
}

TEST(Frame, LengthMismatchDetected) {
  std::vector<std::uint8_t> frame = make_data_frame(0, 1, 0, {1, 2, 3, 4});
  EXPECT_FALSE(net::frame_length_mismatch(frame.data(), frame.size()));
  EXPECT_TRUE(net::frame_length_mismatch(frame.data(), frame.size() - 2));
  // Non-frame traffic is not flagged (no magic).
  std::vector<std::uint8_t> other(64, 0);
  EXPECT_FALSE(net::frame_length_mismatch(other.data(), other.size()));
}

TEST(Frame, RefreshAckPreservesPayloadCrc) {
  std::vector<std::uint8_t> frame = make_data_frame(2, 5, 1, {9, 9, 9});
  net::refresh_frame_ack(frame, 4);
  net::FrameHeader header;
  ASSERT_TRUE(net::parse_frame(frame, &header));
  EXPECT_EQ(header.ack, 4u);
  EXPECT_EQ(header.seq, 5u);
}

// ---- ReliableChannel sequence window ----

struct ChannelFixture {
  Config config;
  net::InprocFabric fabric;
  obs::Registry registry{"test"};
  rt::ReliabilityStats stats;
  rt::ReliableChannel channel;
  std::deque<net::InMessage> out;

  ChannelFixture()
      : config([] {
          Config c = Config::testing();
          c.reliable_transport = true;
          return c;
        }()),
        fabric(2, net::NetworkModel::instant()),
        channel(config, fabric.endpoint(1), &stats) {
    stats.bind(registry);
  }

  void feed(const std::vector<std::uint8_t>& frame, std::uint64_t now_ns) {
    channel.on_message(net::InMessage{0, frame}, now_ns, &out);
  }
};

TEST(ReliableChannel, DuplicateDeliveryIsSuppressed) {
  // The seq window makes command execution idempotent: a retransmitted
  // buffer that was already delivered must never reach the helpers again.
  ChannelFixture fx;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const std::vector<std::uint8_t> frame = make_data_frame(0, 1, 0, payload);

  fx.feed(frame, 1000);
  ASSERT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.out.front().payload, payload);
  EXPECT_EQ(fx.out.front().src, 0u);

  fx.feed(frame, 2000);  // duplicate (lost-ack retransmission)
  fx.feed(frame, 3000);  // and again
  EXPECT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.stats.dup_suppressed.read(), 2u);
}

TEST(ReliableChannel, OutOfOrderFramesDeliveredInOrder) {
  ChannelFixture fx;
  const std::vector<std::uint8_t> first = {1};
  const std::vector<std::uint8_t> second = {2};
  const std::vector<std::uint8_t> third = {3};

  fx.feed(make_data_frame(0, 3, 0, third), 1000);
  fx.feed(make_data_frame(0, 2, 0, second), 2000);
  EXPECT_TRUE(fx.out.empty());  // gap at seq 1: nothing deliverable yet
  EXPECT_EQ(fx.stats.out_of_order_held.read(), 2u);

  fx.feed(make_data_frame(0, 1, 0, first), 3000);
  ASSERT_EQ(fx.out.size(), 3u);
  EXPECT_EQ(fx.out[0].payload, first);
  EXPECT_EQ(fx.out[1].payload, second);
  EXPECT_EQ(fx.out[2].payload, third);
}

TEST(ReliableChannel, CorruptFrameDroppedAndCounted) {
  ChannelFixture fx;
  std::vector<std::uint8_t> frame = make_data_frame(0, 1, 0, {5, 6, 7});
  frame[net::kFrameHeaderSize] ^= 0x01;  // corrupt the payload
  fx.feed(frame, 1000);
  EXPECT_TRUE(fx.out.empty());
  EXPECT_EQ(fx.stats.crc_drops.read(), 1u);
  // The intact retransmission is accepted as seq 1, not a duplicate.
  fx.feed(make_data_frame(0, 1, 0, {5, 6, 7}), 2000);
  EXPECT_EQ(fx.out.size(), 1u);
  EXPECT_EQ(fx.stats.dup_suppressed.read(), 0u);
}

TEST(ReliableChannel, RetransmitsUntilAckedThenQuiesces) {
  Config config = Config::testing();
  config.reliable_transport = true;
  net::InprocFabric fabric(2, net::NetworkModel::instant());
  obs::Registry registry("test");
  rt::ReliabilityStats stats;
  stats.bind(registry);
  rt::ReliableChannel sender(config, fabric.endpoint(0), &stats);

  sender.submit(1, make_data_frame(0, 0, 0, {1, 2, 3}));
  EXPECT_FALSE(sender.quiescent());
  std::uint64_t now = 1'000'000;
  sender.pump(now);
  EXPECT_EQ(stats.data_frames_sent.read(), 1u);

  // No ack arrives: pumping past the timeout retransmits with backoff.
  now += config.retry_timeout_ns + 1;
  sender.pump(now);
  now += 2 * config.retry_timeout_ns + 1;
  sender.pump(now);
  EXPECT_GE(stats.retransmits.read(), 2u);
  EXPECT_FALSE(sender.quiescent());

  // A cumulative ack for seq 1 clears the window.
  std::vector<std::uint8_t> ack(net::kFrameHeaderSize);
  net::FrameHeader header;
  header.type = static_cast<std::uint8_t>(net::FrameType::kAck);
  header.src = 1;
  header.ack = 1;
  net::seal_frame(ack, header);
  std::deque<net::InMessage> out;
  sender.on_message(net::InMessage{1, std::move(ack)}, now, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(sender.quiescent());
  // Acked-frame accounting lives in the ack-latency histogram now.
  EXPECT_EQ(stats.ack_latency_ns.read().count, 1u);
}

// ---- FaultyTransport ----

net::FaultCountersSnapshot run_fault_traffic(const FaultInjection& spec,
                                             std::vector<std::size_t>* got) {
  net::InprocFabric fabric(2, net::NetworkModel::instant());
  net::FaultyTransport faulty(fabric.endpoint(0), spec);
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> msg(4 + (i % 16), static_cast<std::uint8_t>(i));
    while (!faulty.send(1, msg)) {
      net::InMessage drain;
      while (fabric.endpoint(1)->try_recv(&drain)) got->push_back(
          drain.payload.size());
    }
  }
  net::InMessage msg;
  while (fabric.endpoint(1)->try_recv(&msg)) got->push_back(
      msg.payload.size());
  return faulty.counters().snapshot();
}

TEST(FaultyTransport, DeterministicForAGivenSeed) {
  FaultInjection spec;
  spec.drop = 0.1;
  spec.duplicate = 0.1;
  spec.corrupt = 0.1;
  spec.reorder = 0.1;
  spec.seed = 1234;
  // Keep releases countdown-driven: a wall-clock deadline firing mid-run
  // would make the interleaving timing-dependent.
  spec.reorder_hold_ns = 1'000'000'000;

  std::vector<std::size_t> got_a, got_b;
  const net::FaultCountersSnapshot a = run_fault_traffic(spec, &got_a);
  const net::FaultCountersSnapshot b = run_fault_traffic(spec, &got_b);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.corruptions, b.corruptions);
  EXPECT_EQ(a.reorders, b.reorders);
  EXPECT_EQ(got_a, got_b);
  EXPECT_GT(a.drops, 0u);
  EXPECT_GT(a.duplicates, 0u);
  EXPECT_GT(a.corruptions, 0u);
  EXPECT_GT(a.reorders, 0u);

  spec.seed = 99;  // a different seed draws a different schedule
  std::vector<std::size_t> got_c;
  const net::FaultCountersSnapshot c = run_fault_traffic(spec, &got_c);
  EXPECT_NE(a.drops, c.drops);
}

TEST(FaultyTransport, DropsExactlyAccountForMissingMessages) {
  FaultInjection spec;
  spec.drop = 0.25;
  spec.seed = 7;
  std::vector<std::size_t> got;
  const net::FaultCountersSnapshot counters = run_fault_traffic(spec, &got);
  EXPECT_GT(counters.drops, 0u);
  EXPECT_EQ(got.size() + counters.drops, 400u);
}

TEST(FaultyTransport, CleanSpecIsTransparent) {
  FaultInjection spec;  // all probabilities zero
  EXPECT_FALSE(spec.any());
  std::vector<std::size_t> got;
  const net::FaultCountersSnapshot counters = run_fault_traffic(spec, &got);
  EXPECT_EQ(counters.total(), 0u);
  EXPECT_EQ(got.size(), 400u);
}

// ---- config plumbing ----

TEST(FaultConfig, LossyFaultsRequireReliableTransport) {
  Config config = Config::testing();
  config.fault.drop = 0.1;
  EXPECT_FALSE(config.validate().empty());
  config.reliable_transport = true;
  EXPECT_TRUE(config.validate().empty()) << config.validate();
}

TEST(FaultConfig, BackpressureOnlyNeedsNoReliability) {
  // Backpressure is lossless: legal without the reliability layer.
  Config config = Config::testing();
  config.fault.backpressure = 0.2;
  EXPECT_TRUE(config.validate().empty()) << config.validate();
}

// ---- fault-matrix integration: the runtime under a hostile network ----

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

struct FaultCase {
  const char* name;
  double drop;
  double duplicate;
  double corrupt;
  double reorder;
  bool expect_retransmits;
  bool expect_dup_suppressed;
  bool expect_crc_drops;
};

void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

class FaultMatrix : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultMatrix, BfsAndChmaSurviveWithCorrectResults) {
  const FaultCase& fc = GetParam();
  Config config = Config::testing();
  config.reliable_transport = true;
  config.fault.drop = fc.drop;
  config.fault.duplicate = fc.duplicate;
  config.fault.corrupt = fc.corrupt;
  config.fault.reorder = fc.reorder;
  config.fault.seed = 0x5eed;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  const graph::Csr csr = graph::build_csr(
      600, graph::generate_uniform({600, 1, 6, /*seed=*/17}));
  const HostBfs reference = host_bfs(csr, 0);

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    graph::DistGraph dist = graph::DistGraph::build(csr);
    const kernels::BfsResult bfs = kernels::bfs_gmt(dist, 0);
    EXPECT_EQ(bfs.visited, reference.visited);
    EXPECT_EQ(bfs.edges_traversed, reference.edges);
    dist.destroy();

    auto workload = kernels::ChmaWorkload::setup(1024, 128, 96, 7);
    const kernels::ChmaResult chma = kernels::chma_gmt(workload, 12, 8);
    EXPECT_EQ(chma.accesses, 12u * 8);
    const auto pool = hash::generate_pool(128, 7);
    for (int i = 0; i < 96; ++i)
      EXPECT_TRUE(workload.map.contains(pool[i])) << "key " << i;
    workload.destroy();
  });

  // The faults really fired...
  const net::FaultCountersSnapshot faults = cluster.total_fault_counters();
  EXPECT_GT(faults.total(), 0u);
  if (fc.drop > 0) {
    EXPECT_GT(faults.drops, 0u);
  }
  if (fc.duplicate > 0) {
    EXPECT_GT(faults.duplicates, 0u);
  }
  if (fc.corrupt > 0) {
    EXPECT_GT(faults.corruptions, 0u);
  }
  if (fc.reorder > 0) {
    EXPECT_GT(faults.reorders, 0u);
  }

  // ...and the reliability layer visibly recovered from them.
  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GT(snap.counter(obs::names::kRelDataFrames), 0u);
  if (fc.expect_retransmits) {
    EXPECT_GT(snap.counter(obs::names::kRelRetransmits), 0u);
  }
  if (fc.expect_dup_suppressed) {
    EXPECT_GT(snap.counter(obs::names::kRelDupSuppressed), 0u);
  }
  if (fc.expect_crc_drops) {
    EXPECT_GT(snap.counter(obs::names::kRelCrcDrops), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classes, FaultMatrix,
    ::testing::Values(
        FaultCase{"DropOnly", 0.05, 0, 0, 0, true, false, false},
        FaultCase{"DupOnly", 0, 0.08, 0, 0, false, true, false},
        FaultCase{"CorruptOnly", 0, 0, 0.05, 0, false, false, true},
        FaultCase{"Combined", 0.05, 0.02, 0.01, 0.02, true, false, false}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      return std::string(info.param.name);
    });

// ---- credit-starvation soak: flow control under a hostile network ----

TEST(FlowControl, CreditStarvationSoakMakesForwardProgress) {
  // A tiny credit window (2 buffers in flight per destination) combined
  // with drops and backpressure starves senders of credits for long
  // stretches: grants ride acks, and acked frames are being dropped. The
  // soak asserts liveness (the workload completes — tasks parked on
  // credits are woken when grants finally land) and that the credit
  // machinery demonstrably engaged.
  Config config = Config::testing();
  config.reliable_transport = true;
  config.flow_credits = 2;
  config.buffer_size = 2048;
  config.fault.drop = 0.05;
  config.fault.backpressure = 0.15;
  config.fault.seed = 0xc4ed17;
  ASSERT_TRUE(config.validate().empty()) << config.validate();

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    const gmt_handle h = gmt_new(64 * 1024, Alloc::kPartition);
    std::vector<std::uint8_t> chunk(256);
    // Flood of non-blocking puts round-robined across partitions: far
    // more buffered bytes than the 2-buffer window permits, so the
    // sender must repeatedly stall and resume on grants.
    for (int round = 0; round < 40; ++round) {
      for (std::uint64_t off = 0; off + chunk.size() <= 64 * 1024;
           off += chunk.size()) {
        chunk.assign(chunk.size(),
                     static_cast<std::uint8_t>(round ^ (off >> 8)));
        gmt_put_nb(h, off, chunk.data(), chunk.size());
      }
      gmt_wait_commands();
    }
    // Spot-check the last round landed intact.
    std::vector<std::uint8_t> back(256);
    gmt_get(h, 0, back.data(), back.size());
    EXPECT_EQ(back[0], static_cast<std::uint8_t>(39));
    gmt_free(h);
  });

  const net::FaultCountersSnapshot faults = cluster.total_fault_counters();
  EXPECT_GT(faults.drops, 0u);
  EXPECT_GT(faults.backpressures, 0u);

  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  const std::uint64_t consumed = snap.counter(obs::names::kAggCreditsConsumed);
  const std::uint64_t granted = snap.counter(obs::names::kAggCreditsGranted);
  EXPECT_GT(snap.counter(obs::names::kRelRetransmits), 0u);  // network hurt
  EXPECT_GT(consumed, 0u);  // window was exercised
  EXPECT_GT(granted, 0u);   // grants flowed back
  // Every buffer shipped consumed a credit; every buffer drained granted
  // one. Retransmitted buffers don't re-consume, so consumed <= granted +
  // (window still open) is the steady-state bound after quiescence.
  EXPECT_LE(consumed, granted + 2ull * 3 * 3);
}

TEST(FlowControl, TinyWindowCleanNetworkStillCompletes) {
  // flow_credits=1 with no faults: the tightest legal window. Progress
  // must come purely from the grant round-trip; this is the test most
  // likely to hang if a lost-wakeup or credit-leak bug exists.
  Config config = Config::testing();
  config.reliable_transport = true;
  config.flow_credits = 1;
  config.buffer_size = 1024;

  rt::Cluster cluster(2, config);
  test::run_task(cluster, [&] {
    const gmt_handle h = gmt_new(32 * 1024, Alloc::kPartition);
    std::vector<std::uint8_t> chunk(512, 0xee);
    for (std::uint64_t off = 0; off + chunk.size() <= 32 * 1024;
         off += chunk.size())
      gmt_put_nb(h, off, chunk.data(), chunk.size());
    gmt_wait_commands();
    std::vector<std::uint8_t> back(512);
    gmt_get(h, 31 * 1024, back.data(), back.size());
    EXPECT_EQ(back[511], 0xee);
    gmt_free(h);
  });

  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GT(snap.counter(obs::names::kAggCreditsConsumed), 0u);
  EXPECT_GT(snap.counter(obs::names::kAggCreditsGranted), 0u);
}

TEST(FaultFree, ReliableTransportAloneStaysCorrect) {
  // The protocol without any faults: pure overhead check — results and
  // stats must show zero recoveries.
  Config config = Config::testing();
  config.reliable_transport = true;

  const graph::Csr csr = graph::build_csr(
      400, graph::generate_uniform({400, 1, 6, /*seed=*/5}));
  const HostBfs reference = host_bfs(csr, 0);

  rt::Cluster cluster(3, config);
  test::run_task(cluster, [&] {
    graph::DistGraph dist = graph::DistGraph::build(csr);
    const kernels::BfsResult bfs = kernels::bfs_gmt(dist, 0);
    EXPECT_EQ(bfs.visited, reference.visited);
    dist.destroy();
  });

  const obs::Snapshot snap = test::cluster_snapshot(cluster);
  EXPECT_GT(snap.counter(obs::names::kRelDataFrames), 0u);
  // No corruption is possible without an injector. Retransmissions (and
  // the duplicate suppressions they cause) can still occur legitimately:
  // on an oversubscribed host the ack may simply arrive after the RTO.
  EXPECT_EQ(snap.counter(obs::names::kRelCrcDrops), 0u);
  EXPECT_EQ(cluster.total_fault_counters().total(), 0u);
}

}  // namespace
}  // namespace gmt
