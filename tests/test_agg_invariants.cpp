// Randomized invariants for the aggregation pipeline (label: flowcontrol).
//
// The pipeline moves commands through three levels (thread-local blocks,
// per-destination MPMC queues, pooled buffers on SPSC channels) with three
// flush triggers (block full, buffer's-worth queued, deadline) — plenty of
// interleavings for a command to get lost, duplicated, or reordered. Each
// command here carries a unique (slot, sequence) tag so the invariants are
// checked exactly:
//
//  - Deterministic suite: a seeded random schedule of appends, deadline
//    firings and flush_all calls, drained after every step. Single-threaded
//    scheduling makes global delivery order well-defined, so per-(slot,
//    destination) FIFO order is asserted, plus idle() <=> quiescence at
//    every step.
//  - Concurrent suite: seeded random traffic from several threads with
//    randomized flush interleavings; delivery order across threads is
//    unspecified, so it asserts exact set-completeness (nothing lost,
//    nothing duplicated, payloads intact) and per-thread tag monotonicity
//    is not required.
//  - Credit suite: the flow-control state machine driven directly (no comm
//    server): consumption per shipped buffer, the overdraft bound, grant
//    wrap-around, and drain/grant bookkeeping.
//  - Deadline race: two threads push blocks against each other's forced
//    aggregation in lock-step rounds; every queued block must keep a flush
//    deadline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/time.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "runtime/aggregation.hpp"
#include "runtime/command.hpp"

namespace gmt::rt {
namespace {

Config small_config() {
  Config c = Config::testing();
  c.buffer_size = 1024;
  c.cmd_block_entries = 4;
  c.cmd_block_timeout_ns = 1'000'000;  // 1 ms
  c.agg_queue_timeout_ns = 2'000'000;  // 2 ms
  return c;
}

// One tagged command: slot in aux1, per-(slot,dst) sequence in aux2, and a
// payload whose bytes are derived from the tag (corruption check).
CmdHeader make_tagged(std::uint64_t slot, std::uint64_t seq,
                      std::uint32_t payload_size) {
  CmdHeader h;
  h.op = Op::kPut;
  h.handle = 7;
  h.offset = seq;
  h.token = (slot << 48) | seq;
  h.aux1 = slot;
  h.aux2 = seq;
  h.payload_size = payload_size;
  return h;
}

std::uint8_t tag_byte(std::uint64_t slot, std::uint64_t seq) {
  return static_cast<std::uint8_t>(0x5a ^ (slot * 31 + seq));
}

struct Decoded {
  std::uint64_t slot;
  std::uint64_t seq;
  std::uint32_t dst;
};

// Pops every channel buffer, decodes its commands in order and appends them
// to `out` (delivery order: buffers of one aggregate pass land on one
// channel in creation order). Verifies payload integrity inline.
void drain_channels(Aggregator& agg, std::vector<Decoded>* out) {
  for (std::uint32_t s = 0; s < agg.num_slots(); ++s) {
    AggBuffer* buffer = nullptr;
    while (agg.slot(s).channel().pop(&buffer)) {
      std::size_t pos = 0;
      const std::uint8_t* payload = nullptr;
      while (pos < buffer->data().size()) {
        const CmdHeader h = decode_cmd(buffer->data().data(),
                                       buffer->data().size(), &pos, &payload);
        if (h.payload_size > 0) {
          const std::uint8_t expected = tag_byte(h.aux1, h.aux2);
          for (std::uint32_t b = 0; b < h.payload_size; ++b)
            ASSERT_EQ(payload[b], expected)
                << "payload corrupted (slot " << h.aux1 << " seq " << h.aux2
                << ")";
        }
        out->push_back(Decoded{h.aux1, h.aux2, buffer->dst});
      }
      agg.release_buffer(buffer);
    }
  }
}

// ------------------------------------------------- deterministic schedule --

TEST(AggInvariants, RandomScheduleKeepsPerSlotDstFifo) {
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    Config config = small_config();
    // This test drains channels only between steps, so one step must never
    // need more buffers than the pool holds (a worst-case poll_flush can
    // force-flush every destination at once): size pool and channels with
    // slack for that — the live comm server usually provides it.
    config.num_buf_per_channel = 16;
    constexpr std::uint32_t kNodes = 4;
    constexpr std::uint32_t kSlots = 3;
    constexpr int kSteps = 4000;
    Aggregator agg(config, kNodes, kSlots);
    std::mt19937_64 rng(seed);

    // Per (slot, dst): next sequence to issue / next expected to arrive.
    std::uint64_t issued[kSlots][kNodes] = {};
    std::uint64_t arrived[kSlots][kNodes] = {};
    std::uint64_t in_flight = 0;
    std::vector<Decoded> delivered;

    for (int step = 0; step < kSteps; ++step) {
      const std::uint32_t action = rng() % 100;
      const auto slot = static_cast<std::uint32_t>(rng() % kSlots);
      const auto dst = static_cast<std::uint32_t>(rng() % kNodes);
      if (action < 80) {
        // Append a tagged command of random size.
        const auto size = static_cast<std::uint32_t>(rng() % 48);
        const std::uint64_t seq = issued[slot][dst]++;
        std::vector<std::uint8_t> payload(size, tag_byte(slot, seq));
        agg.append(agg.slot(slot), dst, make_tagged(slot, seq, size),
                   payload.empty() ? nullptr : payload.data());
        ++in_flight;
      } else if (action < 90) {
        // Deadline firing: far-future now forces every timeout.
        agg.poll_flush(agg.slot(slot),
                       wall_ns() + config.agg_queue_timeout_ns * 1000);
      } else if (action < 95) {
        // No-op poll at the current time (deadlines usually not reached).
        agg.poll_flush(agg.slot(slot), wall_ns());
      } else {
        agg.flush_all(agg.slot(slot));
      }

      // Drain after every step; delivery order is deterministic here.
      delivered.clear();
      drain_channels(agg, &delivered);
      for (const Decoded& d : delivered) {
        ASSERT_LT(d.slot, kSlots);
        ASSERT_LT(d.dst, kNodes);
        ASSERT_EQ(d.seq, arrived[d.slot][d.dst])
            << "seed " << seed << " step " << step
            << ": out-of-order or duplicated delivery for slot " << d.slot
            << " -> dst " << d.dst;
        ++arrived[d.slot][d.dst];
        --in_flight;
      }
      // idle() <=> nothing buffered anywhere.
      ASSERT_EQ(agg.idle(), in_flight == 0)
          << "seed " << seed << " step " << step << ": idle()="
          << agg.idle() << " but " << in_flight << " commands in flight";
    }

    // Final quiescence: flush everything, nothing lost.
    for (std::uint32_t s = 0; s < kSlots; ++s) agg.flush_all(agg.slot(s));
    delivered.clear();
    drain_channels(agg, &delivered);
    for (const Decoded& d : delivered) {
      ASSERT_EQ(d.seq, arrived[d.slot][d.dst]);
      ++arrived[d.slot][d.dst];
      --in_flight;
    }
    EXPECT_EQ(in_flight, 0u) << "seed " << seed << ": commands lost";
    for (std::uint32_t s = 0; s < kSlots; ++s)
      for (std::uint32_t d = 0; d < kNodes; ++d)
        EXPECT_EQ(arrived[s][d], issued[s][d])
            << "seed " << seed << " slot " << s << " dst " << d;
    EXPECT_TRUE(agg.idle());
  }
}

// ---------------------------------------------------- concurrent traffic --

TEST(AggInvariants, ConcurrentRandomTrafficLosesNothing) {
  Config config = small_config();
  config.num_buf_per_channel = 8;
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kThreads = 3;
  constexpr std::uint64_t kPerThread = 4000;
  Aggregator agg(config, kNodes, kThreads);

  // Every delivered (slot, seq) pair, tallied by the drainer. seq is unique
  // per slot here (single counter across destinations).
  std::vector<std::vector<std::uint32_t>> seen(
      kThreads, std::vector<std::uint32_t>(kPerThread, 0));
  std::atomic<std::uint64_t> drained{0};
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    for (;;) {
      bool any = false;
      for (std::uint32_t s = 0; s < agg.num_slots(); ++s) {
        AggBuffer* buffer = nullptr;
        while (agg.slot(s).channel().pop(&buffer)) {
          std::size_t pos = 0;
          const std::uint8_t* payload = nullptr;
          while (pos < buffer->data().size()) {
            const CmdHeader h = decode_cmd(
                buffer->data().data(), buffer->data().size(), &pos, &payload);
            ASSERT_LT(h.aux1, kThreads);
            ASSERT_LT(h.aux2, kPerThread);
            if (h.payload_size > 0) {
              const std::uint8_t expected = tag_byte(h.aux1, h.aux2);
              for (std::uint32_t b = 0; b < h.payload_size; ++b)
                ASSERT_EQ(payload[b], expected);
            }
            ++seen[h.aux1][h.aux2];
            drained.fetch_add(1);
          }
          agg.release_buffer(buffer);
          any = true;
        }
      }
      if (!any && stop.load()) break;
      if (!any) std::this_thread::yield();
    }
  });

  std::vector<std::thread> appenders;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    appenders.emplace_back([&, t] {
      std::mt19937_64 rng(0xfeed + t);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        const auto dst = static_cast<std::uint32_t>(rng() % kNodes);
        const auto size = static_cast<std::uint32_t>(rng() % 64);
        std::vector<std::uint8_t> payload(size, tag_byte(t, i));
        agg.append(agg.slot(t), dst, make_tagged(t, i, size),
                   payload.empty() ? nullptr : payload.data());
        // Randomized flush interleavings against the other appenders.
        if (rng() % 97 == 0)
          agg.poll_flush(agg.slot(t),
                         wall_ns() + config.agg_queue_timeout_ns * 1000);
        if (rng() % 211 == 0) agg.flush_all(agg.slot(t));
      }
      agg.flush_all(agg.slot(t));
    });
  }
  for (auto& thread : appenders) thread.join();
  agg.flush_all(agg.slot(0));  // leftovers another thread's queue may hold
  stop.store(true);
  drainer.join();

  EXPECT_EQ(drained.load(), kThreads * kPerThread);
  for (std::uint32_t t = 0; t < kThreads; ++t)
    for (std::uint64_t i = 0; i < kPerThread; ++i)
      ASSERT_EQ(seen[t][i], 1u) << "thread " << t << " command " << i
                                << (seen[t][i] ? " duplicated" : " lost");
  EXPECT_TRUE(agg.idle());
}

// Queue emptiness has one owner, queued_bytes: push_block counts a block
// before publishing it and stamps the deadline when the count leaves 0, and
// nothing clears the stamp. Two threads race push_block against each
// other's forced aggregate() in lock-step rounds (spin-released, so both
// start within a cache miss of each other); any block left queued without a
// deadline survives the main thread's far-future poll_flush and shows as
// !idle(). Clearing the stamp in aggregate() strands dozens of rounds here.
TEST(AggInvariants, QueuedBlockAlwaysHasDeadline) {
  Config config = small_config();
  config.num_buf_per_channel = 16;
  constexpr std::uint32_t kDst = 1;
  constexpr int kRounds = 200'000;
  Aggregator agg(config, /*nodes=*/2, /*threads=*/2);
  const std::uint64_t far_future = ~std::uint64_t{0} / 2;

  std::atomic<int> go{-1};   // round the racers may start
  std::atomic<int> done{0};  // racer-rounds finished
  const auto spin_until = [](const auto& ready) {
    for (int i = 0; !ready(); ++i) {
      if (i < 4096)
        cpu_relax();
      else
        std::this_thread::yield();
    }
  };
  std::vector<std::thread> racers;
  for (std::uint32_t t = 0; t < 2; ++t) {
    racers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        spin_until([&] { return go.load(std::memory_order_acquire) == round; });
        agg.append(agg.slot(t), kDst,
                   make_tagged(t, static_cast<std::uint64_t>(round), 0),
                   nullptr);
        agg.poll_flush(agg.slot(t), far_future);
        done.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  std::uint64_t delivered = 0;
  int stranded_rounds = 0;
  std::vector<Decoded> out;
  for (int round = 0; round < kRounds; ++round) {
    go.store(round, std::memory_order_release);
    spin_until([&] {
      return done.load(std::memory_order_acquire) == 2 * (round + 1);
    });
    drain_channels(agg, &out);
    agg.poll_flush(agg.slot(0), far_future);
    drain_channels(agg, &out);
    if (!agg.idle()) {
      // Count it, then recover so later rounds still race from empty.
      ++stranded_rounds;
      agg.flush_all(agg.slot(0));
      drain_channels(agg, &out);
    }
    delivered += out.size();
    out.clear();
  }
  for (std::thread& racer : racers) racer.join();

  EXPECT_EQ(stranded_rounds, 0)
      << "rounds whose queued block had no flush deadline";
  EXPECT_EQ(delivered, 2u * kRounds);
  EXPECT_TRUE(agg.idle());
}

// ------------------------------------------------ combining-table checker --

// A combinable fire-and-forget command, as Node::emit would build it: no
// payload, value in aux1, constant token per (slot, dst) — the issuing
// task's TCB, shared by all its outstanding non-blocking ops.
CmdHeader make_combinable(Op op, std::uint64_t offset, std::uint64_t token,
                          std::uint64_t value) {
  CmdHeader h;
  h.op = op;
  h.handle = 7;
  h.offset = offset;
  h.token = token;
  h.flags = static_cast<std::uint8_t>(
      kCombine | (op == Op::kAtomicAdd ? kNoReply : 0));
  h.aux1 = value;
  return h;
}

// Seeded random traffic through a deliberately tiny combining table (8
// cells, 12 live offsets per slot: constant collisions and evictions),
// mixed with ordinary tagged puts, deadline firings and flush_all. The
// model checks the two semantic invariants merging must preserve — adds
// are sum-preserving per (dst, offset) and repeated put-values dedup to
// the last issued value — plus the structural ones: ordinary traffic
// keeps per-(slot, dst) FIFO, idle() <=> quiescence (held combine entries
// count as non-idle), hits equal elided commands, and the wire command
// count equals issued-minus-elided.
TEST(AggInvariants, CombiningPreservesSumsFinalValuesAndFifo) {
  for (const std::uint64_t seed : {3u, 11u, 4242u}) {
    Config config = small_config();
    config.num_buf_per_channel = 16;
    config.combine = true;
    config.combine_table = 8;
    constexpr std::uint32_t kNodes = 3;
    constexpr std::uint32_t kSlots = 2;
    constexpr std::uint32_t kOffsets = 12;  // per slot, > table size
    constexpr int kSteps = 6000;
    obs::Registry registry("test");
    Aggregator agg(config, kNodes, kSlots, &registry);
    ASSERT_TRUE(agg.combining());
    std::mt19937_64 rng(seed);

    // All writes to offset index (slot * kOffsets + j) come from `slot`
    // only, so per-offset delivery order is the slot's issue order.
    constexpr std::uint32_t kCells = kSlots * kOffsets;
    std::uint64_t sum_issued[kNodes][kCells] = {};
    std::uint64_t sum_delivered[kNodes][kCells] = {};
    std::uint64_t last_put_issued[kNodes][kCells] = {};
    std::uint64_t last_put_delivered[kNodes][kCells] = {};
    bool put_issued[kNodes][kCells] = {};
    std::uint64_t issued_raw[kSlots][kNodes] = {};
    std::uint64_t arrived_raw[kSlots][kNodes] = {};
    std::uint64_t raw_in_flight = 0;
    std::uint64_t wire_expected = 0;  // combined cmds that must ship once
    std::uint64_t combined_delivered = 0;
    std::uint64_t merges = 0;

    const auto issue_combinable = [&](Op op, std::uint32_t slot,
                                      std::uint32_t dst, std::uint64_t value) {
      const std::uint32_t cell =
          slot * kOffsets + static_cast<std::uint32_t>(rng() % kOffsets);
      const CmdHeader h = make_combinable(
          op, cell * 8, /*token=*/(std::uint64_t{slot} << 8) | dst, value);
      if (op == Op::kAtomicAdd) {
        sum_issued[dst][cell] += value;
      } else {
        last_put_issued[dst][cell] = value;
        put_issued[dst][cell] = true;
      }
      switch (agg.combine(agg.slot(slot), dst, h)) {
        case CombineResult::kMerged:
          ++merges;
          break;
        case CombineResult::kInstalled:
          ++wire_expected;
          break;
        case CombineResult::kBypass:  // no dead dests here, but mirror emit
          agg.append(agg.slot(slot), dst, h, nullptr);
          ++wire_expected;
          break;
      }
    };

    std::vector<Decoded> delivered;
    for (int step = 0; step < kSteps; ++step) {
      const std::uint32_t action = rng() % 100;
      const auto slot = static_cast<std::uint32_t>(rng() % kSlots);
      const auto dst = static_cast<std::uint32_t>(rng() % kNodes);
      if (action < 35) {
        issue_combinable(Op::kAtomicAdd, slot, dst, rng() % 1000 + 1);
      } else if (action < 55) {
        issue_combinable(Op::kPutValue, slot, dst, rng() + 1);
      } else if (action < 80) {
        const auto size = static_cast<std::uint32_t>(rng() % 48);
        const std::uint64_t seq = issued_raw[slot][dst]++;
        std::vector<std::uint8_t> payload(size, tag_byte(slot, seq));
        agg.append(agg.slot(slot), dst, make_tagged(slot, seq, size),
                   payload.empty() ? nullptr : payload.data());
        ++raw_in_flight;
      } else if (action < 90) {
        // Far-future deadline: fires block timeouts AND combine drains.
        agg.poll_flush(agg.slot(slot),
                       wall_ns() + config.agg_queue_timeout_ns * 1000);
      } else if (action < 95) {
        agg.poll_flush(agg.slot(slot), wall_ns());
      } else {
        agg.flush_all(agg.slot(slot));
      }

      delivered.clear();
      for (std::uint32_t s = 0; s < agg.num_slots(); ++s) {
        AggBuffer* buffer = nullptr;
        while (agg.slot(s).channel().pop(&buffer)) {
          std::size_t pos = 0;
          const std::uint8_t* payload = nullptr;
          while (pos < buffer->data().size()) {
            const CmdHeader h = decode_cmd(
                buffer->data().data(), buffer->data().size(), &pos, &payload);
            if (h.op == Op::kAtomicAdd || h.op == Op::kPutValue) {
              const std::uint64_t cell = h.offset / 8;
              ASSERT_LT(cell, kCells);
              if (h.op == Op::kAtomicAdd)
                sum_delivered[buffer->dst][cell] += h.aux1;
              else
                last_put_delivered[buffer->dst][cell] = h.aux1;
              ++combined_delivered;
            } else {
              delivered.push_back(Decoded{h.aux1, h.aux2, buffer->dst});
            }
          }
          agg.release_buffer(buffer);
        }
      }
      for (const Decoded& d : delivered) {
        ASSERT_EQ(d.seq, arrived_raw[d.slot][d.dst])
            << "seed " << seed << " step " << step
            << ": raw FIFO broken for slot " << d.slot << " -> " << d.dst;
        ++arrived_raw[d.slot][d.dst];
        --raw_in_flight;
      }
      const std::uint64_t outstanding =
          raw_in_flight + (wire_expected - combined_delivered);
      ASSERT_EQ(agg.idle(), outstanding == 0)
          << "seed " << seed << " step " << step << ": idle()=" << agg.idle()
          << " with " << outstanding << " outstanding";
    }

    // Quiesce and check the semantic invariants end to end.
    for (std::uint32_t s = 0; s < kSlots; ++s) agg.flush_all(agg.slot(s));
    for (std::uint32_t s = 0; s < agg.num_slots(); ++s) {
      AggBuffer* buffer = nullptr;
      while (agg.slot(s).channel().pop(&buffer)) {
        std::size_t pos = 0;
        const std::uint8_t* payload = nullptr;
        while (pos < buffer->data().size()) {
          const CmdHeader h = decode_cmd(buffer->data().data(),
                                         buffer->data().size(), &pos,
                                         &payload);
          if (h.op == Op::kAtomicAdd) {
            sum_delivered[buffer->dst][h.offset / 8] += h.aux1;
            ++combined_delivered;
          } else if (h.op == Op::kPutValue) {
            last_put_delivered[buffer->dst][h.offset / 8] = h.aux1;
            ++combined_delivered;
          } else {
            ASSERT_EQ(h.aux2, arrived_raw[h.aux1][buffer->dst]);
            ++arrived_raw[h.aux1][buffer->dst];
            --raw_in_flight;
          }
        }
        agg.release_buffer(buffer);
      }
    }
    EXPECT_TRUE(agg.idle()) << "seed " << seed;
    EXPECT_EQ(raw_in_flight, 0u) << "seed " << seed;
    EXPECT_EQ(combined_delivered, wire_expected) << "seed " << seed;
    for (std::uint32_t s = 0; s < kSlots; ++s)
      for (std::uint32_t d = 0; d < kNodes; ++d)
        EXPECT_EQ(arrived_raw[s][d], issued_raw[s][d])
            << "seed " << seed << " slot " << s << " dst " << d;
    for (std::uint32_t d = 0; d < kNodes; ++d)
      for (std::uint32_t c = 0; c < kCells; ++c) {
        EXPECT_EQ(sum_delivered[d][c], sum_issued[d][c])
            << "seed " << seed << ": add sum not preserved for dst " << d
            << " cell " << c;
        if (put_issued[d][c])
          EXPECT_EQ(last_put_delivered[d][c], last_put_issued[d][c])
              << "seed " << seed << ": put dedup lost the last value for dst "
              << d << " cell " << c;
      }
    EXPECT_GT(merges, 0u) << "seed " << seed << ": table never merged";
    EXPECT_GT(agg.stats().combine_evictions.read(), 0u) << "seed " << seed;
    // Every hit is one elided wire command, and nothing else was elided.
    EXPECT_EQ(agg.stats().combine_hits.read(), merges) << "seed " << seed;
    std::uint64_t raw_total = 0;
    for (std::uint32_t s = 0; s < kSlots; ++s)
      for (std::uint32_t d = 0; d < kNodes; ++d) raw_total += issued_raw[s][d];
    EXPECT_EQ(agg.stats().commands.read(), raw_total + wire_expected)
        << "seed " << seed;
  }
}

// -------------------------------------------------- credit state machine --

TEST(AggInvariants, CreditsGateAggregationAndGrantsReopen) {
  Config config = small_config();
  config.reliable_transport = true;
  config.flow_credits = 2;
  obs::Registry registry("test");
  Aggregator agg(config, /*nodes=*/2, /*threads=*/1, &registry);
  AggregationSlot& slot = agg.slot(0);
  ASSERT_TRUE(agg.flow_enabled());
  ASSERT_EQ(agg.credits_available(1), 2);

  // Saturate destination 1 far past the credit window.
  const CmdHeader put = make_tagged(0, 0, 100);
  std::vector<std::uint8_t> payload(100, tag_byte(0, 0));
  const std::size_t per_cmd = cmd_wire_size(put);
  const std::size_t commands = 30 * (config.buffer_size / per_cmd);
  std::uint64_t appended = 0;
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < commands; ++i) {
    agg.append(slot, 1, put, payload.data());
    ++appended;
    AggBuffer* buffer = nullptr;  // play comm server: drain, but do NOT
    while (slot.channel().pop(&buffer)) {  // grant credits back yet
      ++sent;
      agg.release_buffer(buffer);
    }
  }
  agg.flush_all(slot);
  AggBuffer* buffer = nullptr;
  while (slot.channel().pop(&buffer)) {
    ++sent;
    agg.release_buffer(buffer);
  }
  // The window limits shipped buffers: 2 credits, plus at most one
  // overdraft per aggregation pass holding a popped block.
  EXPECT_GE(sent, 1u);
  EXPECT_LE(agg.stats().credits_consumed.read(), 3u);
  EXPECT_LE(agg.credits_available(1), 0);
  EXPECT_FALSE(agg.idle());  // the backlog is credit-gated, not lost

  // Stale/duplicate adverts must not mint credits.
  const std::int64_t before = agg.credits_available(1);
  agg.apply_credit_grant(1, 0);                    // duplicate of initial
  agg.apply_credit_grant(1, static_cast<std::uint16_t>(-5));  // stale wrap
  EXPECT_EQ(agg.credits_available(1), before);

  // Grants reopen the window; repeated grant/drain rounds deliver the
  // whole backlog with never more than the window in flight per round.
  std::uint16_t cumulative = 0;
  std::uint64_t delivered_cmds = 0;
  for (int round = 0; round < 10000 && !agg.idle(); ++round) {
    cumulative = static_cast<std::uint16_t>(cumulative + 2);
    agg.apply_credit_grant(1, cumulative);
    agg.poll_flush(slot, wall_ns() + config.agg_queue_timeout_ns * 1000);
    std::uint64_t sent_this_round = 0;
    while (slot.channel().pop(&buffer)) {
      // reliable_transport reserves a frame-header prefix in each buffer.
      std::size_t pos = net::kFrameHeaderSize;
      const std::uint8_t* p = nullptr;
      while (pos < buffer->data().size()) {
        decode_cmd(buffer->data().data(), buffer->data().size(), &pos, &p);
        ++delivered_cmds;
      }
      ++sent_this_round;
      agg.release_buffer(buffer);
    }
    EXPECT_LE(sent_this_round, 3u);  // window + overdraft
  }
  EXPECT_TRUE(agg.idle());
  // Commands shipped before the gate plus the granted rounds cover all.
  std::uint64_t total = delivered_cmds;
  EXPECT_LE(total, appended);
  // Everything eventually delivered: drain bookkeeping agrees.
  EXPECT_EQ(agg.stats().commands.read(), appended);
}

TEST(AggInvariants, DrainedCreditAccumulatesPerSource) {
  Config config = small_config();
  config.reliable_transport = true;
  config.flow_credits = 4;
  obs::Registry registry("test");
  Aggregator agg(config, /*nodes=*/3, /*threads=*/1, &registry);
  EXPECT_EQ(agg.drained_credit(1), 0u);
  for (int i = 0; i < 5; ++i) agg.note_buffer_drained(1);
  agg.note_buffer_drained(2);
  EXPECT_EQ(agg.drained_credit(1), 5u);
  EXPECT_EQ(agg.drained_credit(2), 1u);
  EXPECT_EQ(agg.stats().credits_granted.read(), 6u);
}

}  // namespace
}  // namespace gmt::rt
