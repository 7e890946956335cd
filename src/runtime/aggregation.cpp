#include "runtime/aggregation.hpp"

#include "common/backoff.hpp"
#include "common/time.hpp"
#include "gmt/obs.hpp"
#include "net/frame.hpp"
#include "obs/trace.hpp"
#include "runtime/node.hpp"

namespace gmt::rt {

namespace {

// Pool must let every thread hold one open block per destination and still
// leave slack for blocks parked in aggregation queues.
std::size_t block_population(const Config& config, std::uint32_t num_nodes,
                             std::uint32_t num_threads) {
  const std::size_t floor_needed =
      static_cast<std::size_t>(num_threads) * num_nodes + 4 * num_threads + 16;
  return config.cmd_block_pool_size > floor_needed
             ? config.cmd_block_pool_size
             : floor_needed;
}

std::size_t buffer_population(const Config& config,
                              std::uint32_t num_threads) {
  const std::size_t n =
      static_cast<std::size_t>(config.num_buf_per_channel) * num_threads;
  return n < 8 ? 8 : n;
}

// Bytes of a buffer available to commands. The frame header reserve comes
// out of the command budget so a full command block always fits an empty
// aggregation buffer.
std::uint32_t payload_capacity(const Config& config) {
  return config.buffer_size -
         (config.reliable_transport
              ? static_cast<std::uint32_t>(net::kFrameHeaderSize)
              : 0u);
}

// Recycle passes a non-task caller attempts before it is handed an
// off-pool emergency block (it must not wait: a helper that stops draining
// incoming buffers would wedge the peer's credit window — a distributed
// deadlock the emergency path exists to rule out).
constexpr std::uint32_t kEmergencyPasses = 8;

// Adaptive flush AIMD parameters. The queue deadline halves every time the
// deadline fires with less than kAdaptiveFillNum/Den of a buffer queued
// (waiting bought no coalescing) and grows by 5/4 whenever the size
// trigger flushes a full buffer first (waiting is free); the block
// deadline tracks it at half scale so blocks feed queues ahead of the
// queue flush. The floor sits where per-message fixed costs start to
// dominate; the ceiling bounds worst-case latency for sparse traffic.
constexpr std::uint64_t kAdaptiveQueueMinNs = 5'000;
constexpr std::uint64_t kAdaptiveQueueMaxNs = 1'000'000;
constexpr std::uint64_t kAdaptiveBlockMinNs = 2'500;
constexpr std::uint64_t kAdaptiveBlockMaxNs = 500'000;
constexpr std::uint64_t kAdaptiveFillNum = 1;
constexpr std::uint64_t kAdaptiveFillDen = 4;

std::uint64_t clamp_adaptive(std::uint64_t t) {
  if (t < kAdaptiveQueueMinNs) return kAdaptiveQueueMinNs;
  if (t > kAdaptiveQueueMaxNs) return kAdaptiveQueueMaxNs;
  return t;
}

}  // namespace

void AggStats::bind(obs::Registry& reg) {
  commands = reg.counter(obs::names::kAggCommands);
  blocks_full = reg.counter(obs::names::kAggBlocksFull);
  blocks_timeout = reg.counter(obs::names::kAggBlocksTimeout);
  buffers_sent = reg.counter(obs::names::kAggBuffersSent);
  buffer_bytes = reg.counter(obs::names::kAggBufferBytes);
  aggregations = reg.counter(obs::names::kAggPasses);
  flush_bytes = reg.histogram(obs::names::kAggFlushBytes);
  credits_consumed = reg.counter(obs::names::kAggCreditsConsumed);
  credits_granted = reg.counter(obs::names::kAggCreditsGranted);
  credit_stalls = reg.counter(obs::names::kAggCreditStalls);
  blocks_emergency = reg.counter(obs::names::kAggBlocksEmergency);
  credit_stall_ns = reg.histogram(obs::names::kAggCreditStallNs);
  adaptive_queue_ns = reg.histogram(obs::names::kAggAdaptiveQueueNs);
  adaptive_block_ns = reg.histogram(obs::names::kAggAdaptiveBlockNs);
  combine_hits = reg.counter(obs::names::kAggCombineHits);
  combine_installs = reg.counter(obs::names::kAggCombineInstalls);
  combine_evictions = reg.counter(obs::names::kAggCombineEvictions);
  combine_drains = reg.counter(obs::names::kAggCombineDrains);
}

Aggregator::Aggregator(const Config& config, std::uint32_t num_nodes,
                       std::uint32_t num_threads, obs::Registry* registry)
    : config_(config),
      num_nodes_(num_nodes),
      combine_entries_(config.combine ? config.combine_table : 0),
      block_pool_(block_population(config, num_nodes, num_threads),
                  payload_capacity(config), config.cmd_block_entries),
      buffer_pool_(buffer_population(config, num_threads), config.buffer_size,
                   config.reliable_transport
                       ? static_cast<std::uint32_t>(net::kFrameHeaderSize)
                       : 0u) {
  if (registry) stats_.bind(*registry);
  queues_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    // 2x the pool population: the queue must absorb emergency (off-pool)
    // blocks on top of every pooled block without ever being full.
    auto queue = std::make_unique<DestQueue>(block_pool_.population() * 2);
    queue->credits.store(static_cast<std::int64_t>(config.flow_credits),
                         std::memory_order_relaxed);
    queues_.push_back(std::move(queue));
  }
  slots_.reserve(num_threads);
  for (std::uint32_t i = 0; i < num_threads; ++i)
    slots_.push_back(std::make_unique<AggregationSlot>(
        this, num_nodes, config.num_buf_per_channel * 2 + 2,
        combine_entries_));
}

bool Aggregator::park_for_aggregation(const CmdHeader* header) {
  Worker* w = Worker::current();
  if (w == nullptr) return false;
  Task* task = w->current_task();
  if (task == nullptr || task->wake == nullptr) return false;

  const std::uint64_t token = task_token(task);
  // The stall ticket is one pending_op completed by wake_stalled. When the
  // command being appended already carries this task's token, its op_*
  // caller pre-counted it in pending_ops — that unsent op can never
  // complete on its own (it is exactly what we are stalled on), so its
  // count *is* the ticket; consuming it and restoring it after the wakeup
  // avoids a self-deadlock in task_block. Any other command (e.g. a
  // spawn-done bound for a remote task) needs an explicit ticket.
  const bool precounted = header != nullptr && header->token == token;
  if (!precounted) task->pending_ops.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stall_mutex_);
    stall_tokens_.push_back(token);
    stall_waiters_.store(static_cast<std::uint32_t>(stall_tokens_.size()),
                         std::memory_order_release);
  }
  stats_.credit_stalls.add();
  const std::uint64_t stall_start_ns = wall_ns();
  w->task_block();
  stats_.credit_stall_ns.observe(wall_ns() - stall_start_ns);
  if (precounted) task->pending_ops.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Aggregator::wake_stalled() {
  if (stall_waiters_.load(std::memory_order_acquire) == 0) return;
  std::vector<std::uint64_t> tokens;
  {
    std::lock_guard<std::mutex> lock(stall_mutex_);
    tokens.swap(stall_tokens_);
    stall_waiters_.store(0, std::memory_order_release);
  }
  for (std::uint64_t token : tokens) complete_one(token);
}

void Aggregator::note_buffer_drained(std::uint32_t src) {
  if (!flow_enabled()) return;
  queues_[src]->drained.fetch_add(1, std::memory_order_release);
  stats_.credits_granted.add();
}

std::uint16_t Aggregator::drained_credit(std::uint32_t peer) const {
  return static_cast<std::uint16_t>(
      queues_[peer]->drained.load(std::memory_order_acquire));
}

void Aggregator::apply_credit_grant(std::uint32_t peer,
                                    std::uint16_t cumulative) {
  if (!flow_enabled()) return;
  DestQueue& queue = *queues_[peer];
  std::uint16_t seen = queue.grant_seen.load(std::memory_order_relaxed);
  for (;;) {
    // Cumulative counter mod 2^16: a delta in [1, 0x7fff] is a fresh grant,
    // anything else a stale or duplicate advert (reordered ack).
    const auto delta = static_cast<std::uint16_t>(cumulative - seen);
    if (delta == 0 || delta >= 0x8000) return;
    if (queue.grant_seen.compare_exchange_weak(seen, cumulative,
                                               std::memory_order_acq_rel)) {
      queue.credits.fetch_add(delta, std::memory_order_release);
      wake_stalled();
      return;
    }
  }
}

std::int64_t Aggregator::credits_available(std::uint32_t dst) const {
  return queues_[dst]->credits.load(std::memory_order_acquire);
}

CommandBlock* Aggregator::acquire_block(AggregationSlot& slot,
                                        const CmdHeader* header) {
  CommandBlock* block = block_pool_.try_acquire();
  if (block) return block;
  Backoff backoff;
  for (std::uint32_t pass = 0;; ++pass) {
    // Recycle: aggregating the fullest queue releases its blocks.
    std::uint32_t best = 0;
    std::uint64_t best_bytes = 0;
    for (std::uint32_t d = 0; d < num_nodes_; ++d) {
      const std::uint64_t bytes =
          queues_[d]->queued_bytes.load(std::memory_order_relaxed);
      if (bytes > best_bytes) {
        best_bytes = bytes;
        best = d;
      }
    }
    if (best_bytes > 0) aggregate(slot, best, /*force=*/true);
    block = block_pool_.try_acquire();
    if (block) return block;
    // A task parks (woken by the poll_flush fallback once blocks recycle);
    // the caller re-evaluates slot state from scratch on nullptr.
    if (park_for_aggregation(header)) return nullptr;
    if (pass >= kEmergencyPasses) {
      const std::uint32_t outstanding =
          emergency_outstanding_.fetch_add(1, std::memory_order_relaxed);
      if (outstanding < block_pool_.population()) {
        auto* fresh = new CommandBlock(payload_capacity(config_),
                                       config_.cmd_block_entries);
        fresh->pooled = false;
        stats_.blocks_emergency.add();
        return fresh;
      }
      emergency_outstanding_.fetch_sub(1, std::memory_order_relaxed);
    }
    // Root task (no wake list) or non-task context: yield the fiber if
    // possible so siblings make progress, otherwise back off the thread.
    if (Worker* w = Worker::current(); w && w->current_task())
      w->task_yield();
    else
      backoff.pause();
  }
}

void Aggregator::recycle_block(CommandBlock* block) {
  if (block->pooled) {
    block->reset();
    block_pool_.release(block);
  } else {
    delete block;
    emergency_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  }
}

AggBuffer* Aggregator::acquire_buffer(AggregationSlot& slot) {
  // Buffers come back from the comm server after each send; under
  // exhaustion wait for it to catch up — a task yields so its siblings
  // keep running, other contexts back off (the comm server drains the
  // channels on its own thread either way).
  (void)slot;
  Backoff backoff;
  for (;;) {
    AggBuffer* buffer = buffer_pool_.try_acquire();
    if (buffer) return buffer;
    if (Worker* w = Worker::current(); w && w->current_task())
      w->task_yield();
    else
      backoff.pause();
  }
}

bool Aggregator::append(AggregationSlot& slot, std::uint32_t dst,
                        const CmdHeader& header, const void* payload) {
  // Per-(slot,dst) FIFO with held entries: a held combined op must never be
  // passed by a later command to the same destination (a blocking put after
  // a held put to one address must land second, and a blocking atomic must
  // observe every held add), so any ordinary append flushes the table
  // first. One predicted-not-taken branch when combining is off.
  if (combine_entries_ != 0 && slot.combine_[dst].live > 0)
    drain_combined(slot, dst);
  return append_raw(slot, dst, header, payload);
}

CombineResult Aggregator::combine(AggregationSlot& slot, std::uint32_t dst,
                                  const CmdHeader& header) {
  if (combine_entries_ == 0) return CombineResult::kBypass;
  GMT_DCHECK(dst < num_nodes_);
  GMT_DCHECK(header.payload_size == 0);
  GMT_DCHECK(header.op == Op::kAtomicAdd || header.op == Op::kPutValue);
  const std::uint32_t index = combine_index(header);
  // Retry loop: the eviction below appends into the command block, which
  // can suspend this fiber (credit park, pool wait); a sibling task may
  // have refilled the cell — or the membership layer killed the
  // destination — by the time it resumes, so each iteration re-reads
  // everything from scratch.
  for (;;) {
    if (dest_dead(dst)) return CombineResult::kBypass;
    AggregationSlot::CombineTable& table = slot.combine_[dst];
    AggregationSlot::CombineEntry& cell = table.cells[index];
    if (!cell.used) {
      cell.used = true;
      cell.handle = header.handle;
      cell.offset = header.offset;
      cell.token = header.token;
      cell.value = header.aux1;
      cell.aux2 = header.aux2;
      cell.op = header.op;
      cell.flags = header.flags;
      if (table.live++ == 0) table.first_ns = wall_ns();
      stats_.combine_installs.add();
      return CombineResult::kInstalled;
    }
    if (cell.handle == header.handle && cell.offset == header.offset &&
        cell.token == header.token && cell.op == header.op &&
        cell.flags == header.flags && cell.aux2 == header.aux2) {
      // Same key, same task: fold. Adds accumulate (mod 2^width, exactly
      // how the destination's fetch_add would have wrapped applying them
      // one by one); repeated put-values dedup last-writer-wins.
      if (cell.op == Op::kAtomicAdd)
        cell.value += header.aux1;
      else
        cell.value = header.aux1;
      stats_.combine_hits.add();
      return CombineResult::kMerged;
    }
    // Collision: evict the resident straight into the command block.
    // Clear the cell *before* the append — it can suspend this fiber.
    const CmdHeader evicted = entry_header(cell);
    cell.used = false;
    --table.live;
    stats_.combine_evictions.add();
    // False only when dst died mid-eviction: the entry is dropped, and the
    // membership death sweep fails its install-time-tracked token.
    (void)append_raw(slot, dst, evicted, nullptr);
  }
}

void Aggregator::drain_combined(AggregationSlot& slot, std::uint32_t dst) {
  AggregationSlot::CombineTable& table = slot.combine_[dst];
  for (std::size_t i = 0; i < table.cells.size(); ++i) {
    // Indexed re-read each iteration: append_raw can suspend the fiber and
    // siblings mutate the table meanwhile.
    AggregationSlot::CombineEntry& cell = table.cells[i];
    if (!cell.used) continue;
    const CmdHeader header = entry_header(cell);
    cell.used = false;
    --table.live;
    stats_.combine_drains.add();
    // Dead destination: dropped without completion — the token was tracked
    // at install, so the membership sweep owns failing it.
    (void)append_raw(slot, dst, header, nullptr);
  }
}

bool Aggregator::append_raw(AggregationSlot& slot, std::uint32_t dst,
                            const CmdHeader& header, const void* payload) {
  GMT_DCHECK(dst < num_nodes_);
  const std::size_t wire = cmd_wire_size(header);
  GMT_CHECK_MSG(wire + kCmdHeaderSize <= payload_capacity(config_),
                "single command exceeds aggregation buffer (chunk it)");

  // Retry loop: every park/yield below can suspend the calling task, and
  // another task on the same worker may mutate the slot meanwhile — so a
  // suspension point never shares an iteration with the append that follows
  // it, and each iteration re-reads all slot state from scratch.
  const bool flow = flow_enabled();
  for (;;) {
    // Checked every iteration: a task parked on credit toward a peer that
    // then died is woken by mark_dead and must land here, not re-park
    // against a credit grant that will never come.
    if (dest_dead(dst)) return false;
    if (flow) {
      // Credit backpressure: once a full buffer's worth is backlogged for a
      // credit-starved destination, appending more only grows the backlog.
      // Park the task until the peer grants credits; non-task callers fall
      // through (helpers must keep draining — the queue absorbs it).
      DestQueue& queue = *queues_[dst];
      if (queue.credits.load(std::memory_order_acquire) <= 0 &&
          queue.queued_bytes.load(std::memory_order_relaxed) >=
              config_.buffer_size) {
        if (park_for_aggregation(&header)) continue;
      }
    }
    CommandBlock* current = slot.current_[dst];
    if (current && !current->fits(wire)) {
      // push_block may aggregate, which can suspend in acquire_buffer; the
      // slot can hold a different current block by the time it returns.
      push_block(slot, dst);
      stats_.blocks_full.add();
      continue;
    }
    if (current == nullptr) {
      CommandBlock* fresh = acquire_block(slot, &header);
      if (fresh == nullptr) continue;  // parked and woken: re-evaluate
      if (slot.current_[dst] != nullptr) {
        // A sibling task installed a block for this destination while this
        // task waited on the pool; installing `fresh` over it would orphan
        // that block and lose its commands.
        recycle_block(fresh);
        continue;
      }
      slot.current_[dst] = fresh;
      current = fresh;
    }
    // No suspension point between reading `current` and appending into it.
    std::uint8_t* out = current->append(wire, wall_ns());
    encode_cmd(out, header, payload);
    stats_.commands.add();
    return true;
  }
}

void Aggregator::mark_dead(std::uint32_t dst) {
  GMT_DCHECK(dst < num_nodes_ && dst < 64);
  // Bit first (release): after this, append refuses the destination, so the
  // drain below races only with stragglers whose commands the next
  // aggregate() pass drops.
  dead_mask_.fetch_or(std::uint64_t{1} << dst, std::memory_order_acq_rel);
  drain_dead(dst);
  // Tasks parked on the dead peer's credit window re-evaluate and fail out
  // through append() == false instead of waiting for a grant forever.
  wake_stalled();
}

void Aggregator::drain_dead(std::uint32_t dst) {
  DestQueue& queue = *queues_[dst];
  CommandBlock* block = nullptr;
  while (queue.blocks.pop(&block)) {
    queue.queued_bytes.fetch_sub(block->bytes(), std::memory_order_relaxed);
    recycle_block(block);
    block = nullptr;
  }
}

void Aggregator::push_block(AggregationSlot& slot, std::uint32_t dst) {
  CommandBlock* block = slot.current_[dst];
  GMT_DCHECK(block && block->cmds() > 0);
  slot.current_[dst] = nullptr;

  DestQueue& queue = *queues_[dst];
  const std::uint64_t bytes = block->bytes();
  // Count (and stamp an empty queue) before publishing: no pop can then
  // precede the count, so queued_bytes never dips below the bytes actually
  // queued, and a non-zero count always carries a past stamp.
  const std::uint64_t prev =
      queue.queued_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (prev == 0) queue.oldest_ns.store(wall_ns(), std::memory_order_relaxed);
  // Sized to the block-pool population plus emergency headroom, the queue
  // can never be genuinely full — but a Vyukov push can fail transiently
  // while concurrent pops are mid-flight, so retry.
  Backoff push_backoff;
  for (std::uint32_t attempt = 0; !queue.blocks.push(block); ++attempt) {
    GMT_CHECK_MSG(attempt < 1u << 24,
                  "aggregation queue overflow (sized to pool population)");
    push_backoff.pause();
  }

  // Enough queued for a full network buffer? Aggregate now (paper step 4).
  if (prev + bytes >= config_.buffer_size) {
    if (config_.adaptive_flush) {
      // AIMD grow: the size trigger filled a buffer before the deadline
      // fired, so the deadline wasn't costing latency — it can afford to
      // lengthen and let sparser phases coalesce more.
      const std::uint64_t t = queue_timeout_ns(queue);
      const std::uint64_t grown = clamp_adaptive(t + t / 4);
      queue.adaptive_ns.store(grown, std::memory_order_relaxed);
    }
    aggregate(slot, dst, /*force=*/false);
  }
}

void Aggregator::aggregate(AggregationSlot& slot, std::uint32_t dst,
                           bool force) {
  DestQueue& queue = *queues_[dst];
  if (dest_dead(dst)) {
    // Before the credit check on purpose: a dead peer grants no credits, so
    // its backlog must drain unconditionally or it pins pool blocks (and
    // idle()) forever. The commands are dropped; the membership layer
    // already failed their tracked completions.
    drain_dead(dst);
    return;
  }
  AggBuffer* buffer = nullptr;
  CommandBlock* block = nullptr;

  stats_.aggregations.add();
  const bool flow = flow_enabled();
  const bool tracing = obs::trace_on();
  const std::uint64_t trace_start_ns = tracing ? wall_ns() : 0;
  std::uint64_t drained_bytes = 0;
  for (;;) {
    if (!block) {
      // Out of credit: stop *before* popping so no block is stranded
      // outside the queue (a filled buffer still ships below). Only a pass
      // already holding a popped block overdraws — by exactly one buffer,
      // since the next iteration lands back here — so credits go negative
      // by at most one per concurrent pass and the receiver's incoming
      // queue is sized for the overshoot.
      if (flow && queue.credits.load(std::memory_order_acquire) <= 0) break;
      if (!queue.blocks.pop(&block)) break;
    }
    if (!buffer) {
      buffer = acquire_buffer(slot);
      buffer->reset();
      buffer->dst = dst;
      if (flow) {
        queue.credits.fetch_sub(1, std::memory_order_acq_rel);
        stats_.credits_consumed.add();
      }
    }
    if (!buffer->fits(block->bytes())) {
      // Ship the filled buffer, keep the block for the next one.
      send_buffer(slot, buffer);
      buffer = nullptr;
      continue;
    }
    buffer->append(block->data(), block->bytes());
    drained_bytes += block->bytes();
    queue.queued_bytes.fetch_sub(block->bytes(), std::memory_order_relaxed);
    recycle_block(block);
    block = nullptr;
    // Without force, stop once less than a buffer's worth remains queued;
    // the remainder waits for more traffic or the timeout.
    if (!force && buffer->data().size() >= config_.buffer_size / 2 &&
        queue.queued_bytes.load(std::memory_order_relaxed) == 0)
      break;
  }
  if (buffer) {
    if (buffer->payload_bytes() > 0) {
      send_buffer(slot, buffer);
    } else {
      // Acquired but never filled (cannot happen today: a buffer is only
      // acquired with a block in hand); refund its credit.
      if (flow) queue.credits.fetch_add(1, std::memory_order_release);
      buffer_pool_.release(buffer);
    }
  }
  if (tracing && drained_bytes > 0)
    obs::trace_complete("buffer.flush", trace_start_ns, wall_ns(),
                        drained_bytes);
}

void Aggregator::send_buffer(AggregationSlot& slot, AggBuffer* buffer) {
  stats_.buffers_sent.add();
  stats_.buffer_bytes.add(buffer->payload_bytes());
  stats_.flush_bytes.observe(buffer->payload_bytes());
  Backoff backoff;
  while (!slot.channel_.push(buffer)) backoff.pause();
}

std::uint64_t Aggregator::queue_timeout_ns(DestQueue& queue) const {
  if (!config_.adaptive_flush) return config_.agg_queue_timeout_ns;
  std::uint64_t t = queue.adaptive_ns.load(std::memory_order_relaxed);
  if (t == 0) {
    // First read seeds from the configured deadline; from there the AIMD
    // loop owns the value.
    t = clamp_adaptive(config_.agg_queue_timeout_ns);
    queue.adaptive_ns.store(t, std::memory_order_relaxed);
  }
  return t;
}

std::uint64_t Aggregator::block_timeout_ns(std::uint64_t queue_timeout) const {
  if (!config_.adaptive_flush) return config_.cmd_block_timeout_ns;
  const std::uint64_t t = queue_timeout / 2;
  if (t < kAdaptiveBlockMinNs) return kAdaptiveBlockMinNs;
  if (t > kAdaptiveBlockMaxNs) return kAdaptiveBlockMaxNs;
  return t;
}

void Aggregator::poll_flush(AggregationSlot& slot, std::uint64_t now_ns) {
  for (std::uint32_t dst = 0; dst < num_nodes_; ++dst) {
    DestQueue& queue = *queues_[dst];
    const std::uint64_t queue_timeout = queue_timeout_ns(queue);
    if (combine_entries_ != 0 && slot.combine_[dst].live > 0) {
      // Held entries share the block deadline: they join the command block
      // here and ride the normal flush below. A dead destination drains
      // immediately so held entries never pin idle()/quiescence.
      if (dest_dead(dst) ||
          now_ns - slot.combine_[dst].first_ns >=
              block_timeout_ns(queue_timeout))
        drain_combined(slot, dst);
    }
    CommandBlock* current = slot.current_[dst];
    if (current && current->cmds() > 0) {
      const std::uint64_t block_timeout = block_timeout_ns(queue_timeout);
      if (now_ns - current->first_cmd_ns() >= block_timeout) {
        push_block(slot, dst);
        stats_.blocks_timeout.add();
        if (config_.adaptive_flush)
          stats_.adaptive_block_ns.observe(block_timeout);
      }
    }
    const std::uint64_t queued =
        queue.queued_bytes.load(std::memory_order_relaxed);
    if (queued != 0 &&
        now_ns - queue.oldest_ns.load(std::memory_order_relaxed) >=
            queue_timeout) {
      if (config_.adaptive_flush &&
          queued < config_.buffer_size * kAdaptiveFillNum / kAdaptiveFillDen) {
        // AIMD shrink: the deadline fired with the queue mostly empty, so
        // waiting bought almost no coalescing — it was pure latency. Halve
        // it so light traffic converges to the floor fast.
        const std::uint64_t shrunk = clamp_adaptive(queue_timeout / 2);
        queue.adaptive_ns.store(shrunk, std::memory_order_relaxed);
      }
      aggregate(slot, dst, /*force=*/true);
      if (config_.adaptive_flush)
        stats_.adaptive_queue_ns.observe(queue_timeout);
    }
  }
  // Lost-wakeup fallback: workers and helpers poll continuously, so any
  // task whose wake raced a resource release is re-readied within a poll
  // period (it re-parks if the resource is still gone).
  if (stall_waiters_.load(std::memory_order_acquire) != 0) wake_stalled();
}

void Aggregator::flush_all(AggregationSlot& slot) {
  for (std::uint32_t dst = 0; dst < num_nodes_; ++dst) {
    if (combine_entries_ != 0 && slot.combine_[dst].live > 0)
      drain_combined(slot, dst);
    CommandBlock* current = slot.current_[dst];
    if (current && current->cmds() > 0) push_block(slot, dst);
    if (queues_[dst]->queued_bytes.load(std::memory_order_relaxed) > 0)
      aggregate(slot, dst, /*force=*/true);
  }
}

void Aggregator::release_buffer(AggBuffer* buffer) {
  buffer->reset();
  buffer_pool_.release(buffer);
  wake_stalled();
}

bool Aggregator::idle() const {
  for (const auto& queue : queues_)
    if (queue->queued_bytes.load(std::memory_order_relaxed) != 0) return false;
  for (const auto& slot : slots_) {
    for (CommandBlock* block : slot->current_)
      if (block && block->cmds() > 0) return false;
    for (const auto& table : slot->combine_)
      if (table.live > 0) return false;
    if (!slot->channel_.empty()) return false;
  }
  return true;
}

}  // namespace gmt::rt
