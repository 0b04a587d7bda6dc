// Shard-local state of the deterministic sharded scheduler.
//
// Nodes are partitioned into contiguous id ranges ("shards"); a cycle runs
// each phase (message delivery, agent activation) shard-by-shard on a small
// worker pool. Everything a worker touches while executing a shard is
// either immutable for the duration of the phase (agent registry, activity
// flags, network config) or lives here, in the shard:
//
//  * `mailbox` — ring of per-cycle buckets holding this shard's incoming
//    messages, appended only at cycle barriers (single-threaded commit) in
//    canonical order, so delivery order is a pure function of the seed.
//  * `outbox` — messages sent by this shard's agents during the current
//    phase. Committed at the barrier: the engine walks shards in ascending
//    order, applying loss/latency (per-message RNG streams) and routing
//    into the destination shard's mailbox. The concatenation of outboxes
//    in shard order IS the canonical (cycle, phase, sender, seq) order,
//    because agents within a shard run in ascending id order.
//  * `observer` — buffered measurement callbacks, replayed into the real
//    observer at the barrier in ascending shard order.
//  * `dropped` — inbox-overflow drop counts, merged into the global
//    traffic accounting at the barrier.
//
// The shard COUNT is a function of the node count alone (never of the
// worker-thread count), so the canonical order — and therefore every
// fixed-seed trajectory — is bit-identical across `threads` settings.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/ids.hpp"
#include "net/message.hpp"
#include "sim/observer.hpp"

namespace whatsup::sim {

// A routed message paired with its absolute due cycle — the STAGING shape
// (pending_local_, wire envelopes). The mailbox ring itself stores bare
// net::Message: the bucket index already encodes the due cycle (due %
// window), so tagging every queued envelope would spend 8 bytes per
// message (4 field + 4 padding) on information the ring position carries —
// ~150 MB of the million-node storm peak.
struct PendingMessage {
  Cycle due = 0;
  net::Message message;
};

// Releases the spare capacity of an empty staging vector once it dwarfs
// the traffic it actually carried. Mailbox buckets, delivery scratch and
// outboxes all converge to the largest burst they ever saw (capacities
// circulate and never shrink), so after a news storm EVERY bucket of the
// ring pins storm-sized storage for the rest of the run — the dominant
// engine-side term of peak bytes/node at the million-node scale. The
// reserve keeps half again the last fill, so ordinary cycle-to-cycle
// growth never reallocates and only a >3x overhang (a genuine burst
// receding) is returned to the allocator. Capacity management never
// touches message content or order, so fixed-seed trajectories are
// unchanged.
template <typename T>
inline void trim_spare_capacity(std::vector<T>& v, std::size_t last_fill) {
  assert(v.empty() && "trim discards elements; call only on drained vectors");
  const std::size_t keep = std::max<std::size_t>(64, last_fill + last_fill / 2);
  if (v.capacity() <= 2 * keep) return;
  std::vector<T>().swap(v);
  v.reserve(keep);
}

struct Shard {
  Shard(NodeId begin, NodeId end, std::size_t window)
      : begin(begin), end(end), mailbox(window) {}

  NodeId begin = 0;  // node id range [begin, end)
  NodeId end = 0;

  // mailbox[c % mailbox.size()] holds messages due at cycle c.
  std::vector<std::vector<net::Message>> mailbox;
  std::vector<net::Message> outbox;
  BufferedObserver observer;
  // Inbox-overflow drops, indexed by net::Protocol.
  std::array<std::size_t, net::kNumProtocols> dropped{};

  // Scratch the due bucket is swapped with during delivery, reused so
  // steady-state cycles allocate nothing.
  std::vector<net::Message> delivery_batch;
  // Delivery grouping permutation over delivery_batch. Sorting 4-byte
  // indices in place (std::sort on (to, index)) replaces the stable_sort
  // of 56-byte Messages, whose merge buffer added a batch-sized transient
  // allocation exactly at the storm-cycle RSS peak.
  std::vector<std::uint32_t> delivery_order;

  std::vector<net::Message>& bucket(Cycle cycle) {
    return mailbox[static_cast<std::size_t>(cycle) % mailbox.size()];
  }

  // Grows the ring to `window` buckets, re-bucketing queued messages by
  // their absolute due cycle (needed when set_network raises latency or
  // jitter after construction). The ring does not store due cycles, but
  // they are recoverable: every queued message is due in [now, now +
  // old_window) — the scheduling invariant that keeps bucket slots unique
  // — so a bucket's index pins its due cycle exactly.
  void grow_window(std::size_t window, Cycle now) {
    if (mailbox.size() >= window) return;
    const std::size_t old_window = mailbox.size();
    std::vector<std::vector<net::Message>> grown(window);
    for (std::size_t b = 0; b < old_window; ++b) {
      const std::size_t offset =
          (b + old_window - static_cast<std::size_t>(now) % old_window) %
          old_window;
      const Cycle due = now + static_cast<Cycle>(offset);
      auto& target = grown[static_cast<std::size_t>(due) % window];
      for (net::Message& m : mailbox[b]) target.push_back(std::move(m));
    }
    mailbox = std::move(grown);
  }
};

// Persistent pool executing `fn(index)` for index in [0, n) with dynamic
// work stealing. The calling thread participates, so `threads` is the
// total parallelism. Tasks must not throw.
class WorkerPool {
 public:
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

  // Blocks until fn has been applied to every index.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_size_ = 0;
  std::uint64_t job_epoch_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t inflight_ = 0;  // workers still inside the current job
  bool stop_ = false;
};

}  // namespace whatsup::sim
