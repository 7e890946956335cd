// Multi-level command aggregation (paper §IV-C, Fig. 3).
//
// Level 1 — pre-aggregation: each worker/helper owns one *command block*
// per destination node and appends commands to it without synchronisation.
// Level 2 — aggregation queues: full (or timed-out) command blocks are
// pushed into a per-destination MPMC queue shared by all threads of the
// node. Level 3 — aggregation buffers: whichever thread observes a queue
// holding a buffer's worth of bytes pops blocks, memcpys them into a pooled
// aggregation buffer, and hands the buffer to the communication server over
// its private SPSC channel queue. Blocks and buffers recycle through
// fixed-population pools; nothing allocates on the command path.
//
// Flow control (config.flow_credits > 0): each destination holds a credit
// window counted in aggregation buffers. Aggregation consumes one credit
// per buffer shipped; the receiving node's helpers grant credits back as
// they drain buffers, and the cumulative drained count rides the
// reliability layer's frame headers (see net::FrameHeader::credit). A
// sender out of credit stops draining that DestQueue, and once a full
// buffer's worth is backlogged, appending *tasks* are parked through the
// O(1) scheduler wake-list instead of spinning — the same latency-hiding
// trick GMT uses for remote operations, applied to backpressure.
//
// Adaptive flushing (config.adaptive_flush): the block/queue flush
// deadlines are tuned per destination by an AIMD control loop on flush
// outcomes. A deadline that fires with the queue still mostly empty is
// adding latency for no coalescing — halve it; a queue whose buffers fill
// before the deadline can afford a longer one for free — grow it. The
// loop converges to the short-deadline floor for elastic, latency-bound
// traffic (where every extra microsecond of waiting starves the tasks
// that would produce the next commands) and backs off only when the size
// trigger is already doing the flushing (paper Fig. 4's sweet spot
// without hand-tuning the fixed timeouts). A rate-EWMA controller was
// tried first and rejected: with blocked tasks the offered load is
// elastic, so a long deadline suppresses the measured rate, which
// prescribes a still longer deadline — a self-reinforcing bad fixed
// point.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "collections/mpmc_queue.hpp"
#include "collections/pool.hpp"
#include "collections/spsc_ring.hpp"
#include "common/cacheline.hpp"
#include "common/config.hpp"
#include "obs/metrics.hpp"
#include "runtime/command.hpp"

namespace gmt::rt {

// Reusable array of serialised commands bound for one destination.
class CommandBlock {
 public:
  CommandBlock(std::uint32_t capacity_bytes, std::uint32_t capacity_cmds)
      : capacity_bytes_(capacity_bytes),
        capacity_cmds_(capacity_cmds),
        data_(std::make_unique<std::uint8_t[]>(capacity_bytes)) {}

  // False for emergency heap blocks handed out when the pool is dry and the
  // caller must not block (helpers); such blocks are deleted, not released.
  bool pooled = true;

  bool fits(std::size_t wire_bytes) const {
    return bytes_ + wire_bytes <= capacity_bytes_ && cmds_ < capacity_cmds_;
  }

  // Reserves wire_bytes and returns the write cursor.
  std::uint8_t* append(std::size_t wire_bytes, std::uint64_t now_ns) {
    GMT_DCHECK(fits(wire_bytes));
    if (cmds_ == 0) first_cmd_ns_ = now_ns;
    std::uint8_t* out = data_.get() + bytes_;
    bytes_ += static_cast<std::uint32_t>(wire_bytes);
    ++cmds_;
    return out;
  }

  void reset() {
    bytes_ = 0;
    cmds_ = 0;
    first_cmd_ns_ = 0;
  }

  const std::uint8_t* data() const { return data_.get(); }
  std::uint32_t bytes() const { return bytes_; }
  std::uint32_t cmds() const { return cmds_; }
  std::uint64_t first_cmd_ns() const { return first_cmd_ns_; }
  std::uint32_t capacity_bytes() const { return capacity_bytes_; }

 private:
  const std::uint32_t capacity_bytes_;
  const std::uint32_t capacity_cmds_;
  std::unique_ptr<std::uint8_t[]> data_;
  std::uint32_t bytes_ = 0;
  std::uint32_t cmds_ = 0;
  std::uint64_t first_cmd_ns_ = 0;
};

// Pooled network-sized buffer the comm server sends as one message. When
// the reliability layer is on, `header_reserve` placeholder bytes lead the
// buffer so the comm server seals the frame header in place — commands are
// never copied again after aggregation.
class AggBuffer {
 public:
  explicit AggBuffer(std::uint32_t capacity, std::uint32_t header_reserve = 0)
      : capacity_(capacity), header_reserve_(header_reserve) {
    reset();
  }

  std::uint32_t dst = 0;

  bool fits(std::size_t more) const { return data_.size() + more <= capacity_; }
  void append(const std::uint8_t* bytes, std::size_t count) {
    data_.insert(data_.end(), bytes, bytes + count);
  }
  void reset() {
    data_.clear();
    if (data_.capacity() < capacity_) data_.reserve(capacity_);
    data_.resize(header_reserve_);
  }

  // Moves the contents (header placeholder + commands) out for sending;
  // the buffer is unusable until the next reset() (release_buffer does it).
  std::vector<std::uint8_t> take() { return std::move(data_); }

  const std::vector<std::uint8_t>& data() const { return data_; }
  // Command bytes, excluding the reserved frame-header prefix.
  std::uint32_t payload_bytes() const {
    return static_cast<std::uint32_t>(data_.size()) - header_reserve_;
  }
  std::uint32_t capacity() const { return capacity_; }

 private:
  std::uint32_t capacity_;
  std::uint32_t header_reserve_;
  std::vector<std::uint8_t> data_;
};

// Aggregation statistics (per node, registry-backed; unbound handles are
// inert, so an Aggregator built without a registry simply counts nothing).
struct AggStats {
  obs::Counter commands;          // commands appended
  obs::Counter blocks_full;       // blocks flushed because full
  obs::Counter blocks_timeout;    // blocks flushed on timeout
  obs::Counter buffers_sent;      // aggregation buffers to comm server
  obs::Counter buffer_bytes;      // payload bytes in those buffers
  obs::Counter aggregations;      // aggregation passes executed
  obs::Histogram flush_bytes;     // payload-size distribution per buffer
  obs::Counter credits_consumed;  // credits spent shipping buffers
  obs::Counter credits_granted;   // credits granted to peers (buffers drained)
  obs::Counter credit_stalls;     // tasks parked on credit/pool exhaustion
  obs::Counter blocks_emergency;  // off-pool blocks handed to non-task callers
  obs::Histogram credit_stall_ns; // park duration per stall
  obs::Histogram adaptive_queue_ns;  // effective queue deadline at flush
  obs::Histogram adaptive_block_ns;  // effective block deadline at flush
  obs::Counter combine_hits;       // ops merged into a resident entry
  obs::Counter combine_installs;   // entries installed (one wire cmd each)
  obs::Counter combine_evictions;  // entries displaced by a colliding key
  obs::Counter combine_drains;     // entries flushed by deadline/order/barrier

  void bind(obs::Registry& reg);
};

class Aggregator;

// Outcome of offering a fire-and-forget command to the combining table.
enum class CombineResult : std::uint8_t {
  kBypass,     // combining off / dst dead / cell conflict: emit normally
  kInstalled,  // entry holds the op; it owns one eventual completion
  kMerged,     // folded into a resident same-key entry; no wire command
};

// Per-thread face of the aggregator: the thread-local command blocks and
// the SPSC channel to the comm server. One per worker and per helper.
class AggregationSlot {
 public:
  AggregationSlot(Aggregator* owner, std::uint32_t num_nodes,
                  std::size_t channel_capacity,
                  std::uint32_t combine_entries)
      : owner_(owner), current_(num_nodes, nullptr),
        channel_(channel_capacity) {
    if (combine_entries > 0) {
      combine_.resize(num_nodes);
      for (CombineTable& table : combine_)
        table.cells.resize(combine_entries);
    }
  }

  SpscRing<AggBuffer*>& channel() { return channel_; }

 private:
  friend class Aggregator;

  // One held fire-and-forget command. Only the owning thread touches the
  // table (same confinement as `current_`); `mark_dead` never reaches in —
  // entries bound for a dead destination are dropped at drain time.
  struct CombineEntry {
    std::uint64_t handle = 0;
    std::uint64_t offset = 0;
    std::uint64_t token = 0;  // same-task only: the key includes the token
    std::uint64_t value = 0;  // summed operand (add) / latest value (put)
    std::uint64_t aux2 = 0;   // kPutValue size; 0 for adds
    Op op{};
    std::uint8_t flags = 0;
    bool used = false;
  };
  struct CombineTable {
    std::vector<CombineEntry> cells;  // direct-mapped, evict-on-collision
    std::uint32_t live = 0;           // occupied cells
    std::uint64_t first_ns = 0;       // stamp of the install that made live>0
  };

  Aggregator* owner_;
  std::vector<CommandBlock*> current_;  // per destination; lazily acquired
  SpscRing<AggBuffer*> channel_;        // filled buffers -> comm server
  std::vector<CombineTable> combine_;   // per destination; empty = off
};

// Node-wide aggregation state: pools, per-destination queues, slots.
class Aggregator {
 public:
  // `registry` (may be null) receives the agg.* metrics.
  Aggregator(const Config& config, std::uint32_t num_nodes,
             std::uint32_t num_threads, obs::Registry* registry = nullptr);

  std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  AggregationSlot& slot(std::uint32_t i) { return *slots_[i]; }

  // Appends one command (header + optional payload) bound for `dst` to the
  // slot's command block, flushing/aggregating as thresholds trip. Applies
  // *cooperative* backpressure: under pool or credit exhaustion a calling
  // task is parked on the scheduler wake-list (or yielded) until resources
  // return, while non-task callers (helpers, comm server) force aggregation
  // and fall back to off-pool emergency blocks so they always stay live —
  // nothing hot-spins. Returns false — the command dropped, nothing
  // buffered — only when `dst` has been declared dead (mark_dead); the
  // caller owns failing the op's completion.
  bool append(AggregationSlot& slot, std::uint32_t dst,
              const CmdHeader& header, const void* payload);

  // Source-side combining (config.combine): offers a payload-free
  // fire-and-forget command to the slot's per-destination table instead of
  // the command block. kInstalled — the entry owns the op's one pending
  // completion (callers with membership must track the token so the death
  // sweep can fail it); kMerged — the op was folded into the resident
  // same-(handle,offset,op,width,token) entry and needs no wire command of
  // its own (the caller completes it immediately); kBypass — combining is
  // off or `dst` is dead: emit through append() as usual. A key collision
  // evicts the resident entry straight into the command block (which may
  // suspend the calling fiber) and retries.
  CombineResult combine(AggregationSlot& slot, std::uint32_t dst,
                        const CmdHeader& header);

  // True when source-side combining is configured on (table size > 0).
  bool combining() const { return combine_entries_ != 0; }

  // Membership fail-stop: marks `dst` dead, drains and recycles its queued
  // command blocks (their commands are dropped — the membership layer fails
  // the tracked in-flight ops) and wakes every stalled task so none stays
  // parked on credit that the dead peer will never grant. Idempotent;
  // called from the comm-server thread.
  void mark_dead(std::uint32_t dst);
  bool dest_dead(std::uint32_t dst) const {
    return dst < 64 &&
           ((dead_mask_.load(std::memory_order_acquire) >> dst) & 1u);
  }

  // Pushes the slot's non-empty timed-out command blocks into the
  // aggregation queues and runs aggregation on queues past their timeout
  // (paper's condition (ii)). Called by idle workers/helpers.
  void poll_flush(AggregationSlot& slot, std::uint64_t now_ns);

  // Unconditionally flushes everything the slot holds and aggregates all
  // queues (used at barriers/shutdown so no command is stranded).
  void flush_all(AggregationSlot& slot);

  // Comm server side: returns a sent buffer to the pool.
  void release_buffer(AggBuffer* buffer);

  const AggStats& stats() const { return stats_; }
  const Config& config() const { return config_; }

  // True when no commands are buffered anywhere in the aggregator (used by
  // quiescence tests).
  bool idle() const;

  // ---- flow control (config.flow_credits > 0) ----

  bool flow_enabled() const { return config_.flow_credits > 0; }

  // Receiver side: a helper finished processing one aggregation buffer that
  // arrived from `src` — one more credit to grant back to that peer.
  void note_buffer_drained(std::uint32_t src);

  // Cumulative count (mod 2^16) of buffers drained from `peer`, i.e. the
  // grant value the comm server stamps into frames bound for `peer`.
  std::uint16_t drained_credit(std::uint32_t peer) const;

  // Sender side: peer advertised its cumulative drained count; applies the
  // delta to the credit window (wrap-guarded — stale or duplicate adverts
  // are ignored) and wakes any tasks parked on credit exhaustion.
  void apply_credit_grant(std::uint32_t peer, std::uint16_t cumulative);

  // Remaining credit toward `dst` (may be transiently negative: a pass that
  // already holds a popped block overdraws rather than strand it).
  std::int64_t credits_available(std::uint32_t dst) const;

  // Off-pool emergency blocks currently outstanding (test introspection).
  std::uint32_t emergency_blocks_outstanding() const {
    return emergency_outstanding_.load(std::memory_order_relaxed);
  }

  // Completes every registered stall ticket, re-readying parked tasks.
  // Called when resources return (credits granted, buffers released) and
  // from poll_flush as a bounded-latency fallback against lost wakeups.
  void wake_stalled();

  // Public face of park_for_aggregation for other backpressure producers
  // (the actor layer parks window-saturated senders here, so mailbox
  // bounds reuse the same ticket list, wake protocol, and poll_flush
  // lost-wakeup fallback as credit exhaustion). `header` identifies the
  // command being stalled; false when there is no parkable task context
  // and the caller must fall back to yielding.
  bool park_for_stall(const CmdHeader* header) {
    return park_for_aggregation(header);
  }

 private:
  // append() minus the combining-table drain: the target of evictions and
  // drains themselves (entering through append() would recurse).
  bool append_raw(AggregationSlot& slot, std::uint32_t dst,
                  const CmdHeader& header, const void* payload);

  // Flushes every held entry for (slot, dst) into the command block in
  // cell order. Appends may suspend the calling fiber; entries installed
  // by sibling tasks during such a suspension are later traffic and simply
  // wait for the next drain. Entries bound for a dead destination are
  // dropped without completion — their tokens were tracked at install, so
  // the membership death sweep owns failing them.
  void drain_combined(AggregationSlot& slot, std::uint32_t dst);

  // Direct-mapped cell index for a combinable command's key.
  std::uint32_t combine_index(const CmdHeader& header) const {
    std::uint64_t h = header.handle * 0x9E3779B97F4A7C15ull;
    h ^= header.offset * 0xFF51AFD7ED558CCDull;
    h ^= header.token;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    h ^= h >> 29;
    return static_cast<std::uint32_t>(h) & (combine_entries_ - 1);
  }

  // Rebuilds the wire command a held entry stands for.
  static CmdHeader entry_header(const AggregationSlot::CombineEntry& cell) {
    CmdHeader header;
    header.op = cell.op;
    header.flags = cell.flags;
    header.handle = cell.handle;
    header.offset = cell.offset;
    header.token = cell.token;
    header.aux1 = cell.value;
    header.aux2 = cell.aux2;
    return header;
  }

  struct alignas(kCacheLine) DestQueue {
    explicit DestQueue(std::size_t capacity) : blocks(capacity) {}
    MpmcQueue<CommandBlock*> blocks;
    // The only emptiness signal. push_block counts a block's bytes before
    // publishing it and stamps `oldest_ns` when the count leaves 0; nothing
    // clears the stamp. So whenever queued_bytes != 0 the stamp is a past
    // wall time and the queue's deadline always arrives; a race can only
    // leave an older stamp (an early flush, never a missed one).
    std::atomic<std::uint64_t> queued_bytes{0};
    std::atomic<std::uint64_t> oldest_ns{0};
    // Flow control: remaining send credits toward this destination (signed:
    // overdraft, see credits_available), the peer's last applied cumulative
    // grant, and our own cumulative drained count *from* this peer.
    std::atomic<std::int64_t> credits{0};
    std::atomic<std::uint16_t> grant_seen{0};
    std::atomic<std::uint64_t> drained{0};
    // Adaptive flush: current AIMD queue deadline (0 = not yet
    // initialised; the first read seeds it from the configured timeout).
    std::atomic<std::uint64_t> adaptive_ns{0};
  };

  // Moves the slot's current block for dst into the destination queue.
  void push_block(AggregationSlot& slot, std::uint32_t dst);

  // Drains queue `dst` into aggregation buffers pushed on slot's channel.
  // With `force`, sends even a partially filled buffer.
  void aggregate(AggregationSlot& slot, std::uint32_t dst, bool force);

  // Hands a filled buffer to the comm server via the slot's channel queue.
  void send_buffer(AggregationSlot& slot, AggBuffer* buffer);

  // Returns a pooled block, recycling via forced aggregation under
  // exhaustion. In task context may park instead and return null — the
  // caller (append) must then re-evaluate slot state and retry. Non-task
  // callers never block: they receive an off-pool emergency block once
  // recycling has demonstrably failed.
  CommandBlock* acquire_block(AggregationSlot& slot, const CmdHeader* header);
  AggBuffer* acquire_buffer(AggregationSlot& slot);

  // Releases a block back to the pool (or deletes an emergency block).
  void recycle_block(CommandBlock* block);

  // Pops and recycles every block queued for a dead destination.
  void drain_dead(std::uint32_t dst);

  // Parks the calling task until wake_stalled runs; false when there is no
  // parkable task context (the caller must use a non-blocking fallback).
  // `header` identifies the command being appended: when it carries the
  // current task's own token, the op's pre-counted pending_op doubles as
  // the stall ticket (see the comment in the implementation).
  bool park_for_aggregation(const CmdHeader* header);

  // Effective flush deadlines for one destination (fixed config values, or
  // the AIMD-tuned deadline when config.adaptive_flush).
  std::uint64_t queue_timeout_ns(DestQueue& queue) const;
  std::uint64_t block_timeout_ns(std::uint64_t queue_timeout) const;

  Config config_;
  std::uint32_t num_nodes_;
  std::uint32_t combine_entries_;  // cells per table; 0 = combining off
  ObjectPool<CommandBlock> block_pool_;
  ObjectPool<AggBuffer> buffer_pool_;
  std::vector<std::unique_ptr<DestQueue>> queues_;
  std::vector<std::unique_ptr<AggregationSlot>> slots_;
  AggStats stats_;

  // Stall tickets of parked tasks; waiters_ mirrors the vector size so the
  // hot paths can skip the mutex when nobody is parked.
  std::mutex stall_mutex_;
  std::vector<std::uint64_t> stall_tokens_;
  std::atomic<std::uint32_t> stall_waiters_{0};
  std::atomic<std::uint32_t> emergency_outstanding_{0};

  // Destinations declared dead by the membership layer (bit per node id;
  // the membership protocol caps clusters at 64 nodes). Append refuses
  // them, aggregation drains them.
  std::atomic<std::uint64_t> dead_mask_{0};
};

}  // namespace gmt::rt
