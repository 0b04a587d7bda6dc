// Cycle-driven peer-to-peer simulation engine — deterministic sharded
// scheduler.
//
// Time advances in gossip cycles (the paper's simulation time unit, §IV-D).
// Nodes are partitioned into contiguous id-range shards; each cycle runs
// two phases, each parallel over shards on a worker pool:
//
//   1. DELIVER  — every shard processes its due mailbox bucket (messages
//      routed to it at earlier barriers), grouped by receiving node in
//      ascending id order; each node shuffles its own batch with its
//      per-cycle stream (randomized against send-order artifacts, yet a
//      pure function of the seed) and enforces the network model's inbox
//      capacity.
//   2. ACTIVATE — every shard activates its active agents once, in
//      ascending node-id order.
//
// Agents never touch shared mutable state during a phase: sends buffer
// into the shard's outbox, measurements into the shard's BufferedObserver,
// and randomness comes from per-node counter-based streams reseeded every
// cycle (a pure function of seed, node id and cycle — independent of
// activation interleaving). At the barrier after each phase the engine,
// single-threaded, replays observer events in ascending shard order and
// commits outboxes in the canonical (cycle, phase, sender, seq) order,
// applying loss and latency from each message's private counter-based
// stream (keyed by sender, cycle and the sender's send counter).
// Fixed-seed trajectories are therefore bit-identical for any
// worker-thread count — and, via the socket transport (sim/transport.hpp),
// for any fragment-partition count; see docs/architecture.md.
//
// Agents are protocol endpoints (WhatsUp node, gossip node, ...); the
// engine knows nothing about protocols. Dissemination events are reported
// through the `DisseminationObserver` interface (sim/observer.hpp),
// implemented by metrics::Tracker — the core stays metrics-agnostic.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "net/size_model.hpp"
#include "net/traffic.hpp"
#include "sim/observer.hpp"

namespace whatsup::sim {

class Engine;
struct PendingMessage;
struct Shard;
class SocketTransport;
class WorkerPool;

// Facade handed to agents: scoped send/rng/time/measurement access for one
// agent. When constructed with a shard (by the scheduler), sends and
// observer callbacks buffer into the shard; when constructed without one
// (main-thread drivers: publish, cold-start wiring, tests), observer
// callbacks commit directly and sends are staged for the next run_cycle's
// flush slot (same delivery cycles — now() is unchanged in between — but a
// canonical, fragment-invariant commit order).
class Context {
 public:
  Context(Engine& engine, NodeId self, Shard* shard = nullptr)
      : engine_(engine), self_(self), shard_(shard) {}

  NodeId self() const { return self_; }
  Cycle now() const;
  // This node's private RNG stream for the current cycle (counter-based:
  // a pure function of the seed, the node id and the cycle).
  Rng& rng();
  Engine& engine() { return engine_; }

  // The dissemination observer to report measurements to; nullptr when no
  // observer is attached. Shard-safe: during parallel phases this is the
  // shard's buffer, replayed in canonical order at the barrier.
  DisseminationObserver* observer();

  // Uniformly random active node other than this one (and `excluding`, if
  // given); kNoNode if none. Draws from this node's stream, so it is safe
  // to call from agent code under any thread count (the active set is
  // frozen during a cycle).
  NodeId random_active_peer(NodeId excluding = kNoNode);

  // This node's reserved reliability substream for the current cycle (a
  // pure function of seed, node id and cycle, disjoint from the per-cycle
  // protocol streams): retransmission backoff jitter draws from it so the
  // reliability layer never perturbs protocol randomness.
  Rng reliability_rng();

  void send(NodeId to, net::MsgType type, net::ViewPayload payload);
  void send(NodeId to, net::MsgType type, net::NewsPayload payload);
  void send(NodeId to, net::MsgType type, net::AckPayload payload);

 private:
  void send(net::Message message);

  Engine& engine_;
  NodeId self_;
  Shard* shard_;
  std::uint16_t next_seq_ = 0;  // per-turn send counter (canonical tie-break)
};

// Protocol endpoint living at one node.
class Agent {
 public:
  virtual ~Agent() = default;

  // Called once per cycle while the node is active (periodic gossip steps).
  virtual void on_cycle(Context& ctx) = 0;
  // Called for each delivered message.
  virtual void on_message(Context& ctx, const net::Message& message) = 0;
  // Called when this node is the source of a new item (BEEP generate).
  virtual void publish(Context& ctx, ItemIdx index, ItemId id) = 0;
  // Called when this node comes back from a crash (Engine::recover): the
  // place to drop stale soft state and run a rejoin handshake. Default:
  // resume with whatever state the agent held (crash-oblivious protocols).
  virtual void on_recover(Context& ctx) { (void)ctx; }
};

class Engine : public ParallelExecutor {
 public:
  struct Config {
    std::uint64_t seed = 42;
    net::NetworkConfig network;
    net::SizeModel size_model;
    // Worker threads for the two per-cycle phases; 0 = hardware
    // concurrency. The fixed-seed trajectory does NOT depend on this.
    unsigned threads = 1;
    // Nodes per shard; 0 = default. The fixed-seed trajectory is
    // invariant to the width (delivery grouping and all RNG streams are
    // per node, never per shard); the knob only trades scheduling
    // granularity against barrier overhead.
    std::size_t shard_nodes = 0;
    // Cross-fragment message transport (sim/transport.hpp); NOT owned and
    // must outlive the engine. nullptr (the default) is the single-process
    // engine: one fragment, no serialization, only the in-process mailbox
    // rings. With a multi-fragment transport this engine becomes
    // one lockstep worker owning the node ids congruent to
    // transport->fragment_id() modulo transport->fragments(); the
    // fixed-seed trajectory is invariant to the fragment count (see
    // docs/architecture.md "Transport layer").
    SocketTransport* transport = nullptr;
  };

  // Small enough that a 500-node deployment still fans out over 8 workers;
  // barrier cost per shard is a few dozen ns, so oversharding is cheap.
  static constexpr std::size_t kDefaultShardNodes = 64;

  explicit Engine(Config config);
  ~Engine();

  // Registers an agent; returns its node id (dense, in registration order).
  NodeId add_agent(std::unique_ptr<Agent> agent);

  // BOOTSTRAP phase: constructs (and, via the factory, seeds) `count`
  // agents with node ids [num_nodes(), num_nodes() + count), per shard on
  // the worker pool. The factory's `rng` is the node's private
  // counter-based bootstrap stream — a pure function of (seed, node id) —
  // so the resulting deployment is bit-identical for any worker-thread
  // count and any shard width. The factory runs concurrently across
  // shards: it must only touch the node's own agent and shared immutable
  // data (workload, params), and must return non-null.
  using AgentFactory = std::function<std::unique_ptr<Agent>(NodeId, Rng&)>;
  void bootstrap(std::size_t count, const AgentFactory& factory);

  // The node's bootstrap stream (also used by drivers that wire extra
  // deterministic per-node state outside the factory).
  Rng bootstrap_rng(NodeId id) const;

  // ParallelExecutor: runs fn(i) for i in [0, n) on the engine's worker
  // pool (inline when threads() == 1). Main-thread, between-phases only —
  // the runner uses it for result collection and metric reduction.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn) override;
  std::size_t num_nodes() const { return agents_.size(); }
  Agent& agent(NodeId id) { return *agents_.at(id); }
  const Agent& agent(NodeId id) const { return *agents_.at(id); }
  // Fragment-safe access: nullptr when the node lives on another fragment
  // (bootstrap materializes only owned agents). Single-fragment engines
  // always return the agent.
  Agent* agent_ptr(NodeId id) {
    return id < agents_.size() ? agents_[id].get() : nullptr;
  }
  const Agent* agent_ptr(NodeId id) const {
    return id < agents_.size() ? agents_[id].get() : nullptr;
  }

  // Fragment topology (1/0/true-for-everything without a multi-fragment
  // transport). Ownership is round-robin: owner(v) = v % fragments().
  std::size_t fragments() const { return fragments_; }
  std::size_t fragment() const { return fragment_; }
  bool owns(NodeId id) const {
    return fragments_ == 1 || id % fragments_ == fragment_;
  }

  // Inactive nodes are skipped by on_cycle and lose incoming messages
  // (models nodes that have not joined yet / have left). Must be called
  // between cycles (main thread), never from agent code.
  void set_active(NodeId id, bool active);
  bool is_active(NodeId id) const { return active_.at(id); }
  // Crash-stop / crash-recovery node faults. crash() deactivates the node
  // and marks it crashed; in-flight messages to it are lost, and a
  // `recover_at` cycle (kNoCycle = crash-stop) schedules recover(), which
  // reactivates the node and invokes Agent::on_recover so the agent can
  // rebuild soft state via a rejoin instead of resurrecting it. Both are
  // between-cycles, main-thread operations. A set_active(id, true) from
  // churn machinery clears the crashed flag WITHOUT the recovery hook
  // (crash-oblivious reactivation); any pending recovery becomes a no-op.
  void crash(NodeId id, Cycle recover_at = kNoCycle);
  void recover(NodeId id);
  bool is_crashed(NodeId id) const { return id < crashed_.size() && crashed_[id]; }
  // O(1): maintained incrementally by add_agent/set_active.
  std::size_t num_active() const { return num_active_; }
  // Ascending ids of the currently active nodes (maintained incrementally).
  const std::vector<NodeId>& active_ids() const { return active_ids_; }

  Cycle now() const { return now_; }
  // Reserved per-node reliability substream for the current cycle (see
  // Context::reliability_rng).
  Rng reliability_rng(NodeId id) const;
  // The per-node stream for the current cycle (lazily reseeded).
  Rng& node_rng(NodeId id);
  net::Traffic& traffic() { return traffic_; }
  const net::Traffic& traffic() const { return traffic_; }
  const net::NetworkConfig& network() const { return config_.network; }
  void set_network(const net::NetworkConfig& network);
  unsigned threads() const { return threads_; }

  DisseminationObserver* observer() { return observer_; }
  void set_observer(DisseminationObserver* observer) { observer_ = observer; }

  // Resident footprint of the engine's message machinery, aggregated over
  // shards (observability for the memory-diet work; docs/perf.md "Memory
  // map"). Capacities, not sizes: this is what the process actually holds
  // across cycles, including recycled-but-retained buffers.
  struct MemoryStats {
    std::size_t mailbox_bytes = 0;   // ring buckets (envelope capacity)
    std::size_t payload_bytes = 0;   // descriptor vectors inside queued messages
    std::size_t outbox_bytes = 0;    // per-shard outbox capacity
    std::size_t scratch_bytes = 0;   // delivery-batch scratch capacity
    std::size_t arena_bytes = 0;     // snapshot-arena slab storage (process-wide)
    std::size_t total() const {
      return mailbox_bytes + payload_bytes + outbox_bytes + scratch_bytes +
             arena_bytes;
    }
  };
  MemoryStats memory_stats() const;

  // Commits a message immediately: traffic accounting, then the message's
  // private network-draw stream (loss, latency, ...) and routing into the
  // destination shard's mailbox. Main-thread entry point (tests, drivers).
  // Agent sends go through Context::send instead, which buffers into the
  // shard outbox during parallel phases (committed at the barrier) and
  // stages on main-thread contexts (committed at the next run_cycle's
  // flush slot — same due cycles, since now() is unchanged in between).
  // In fragment mode a remote-destination send is serialized and shipped
  // at the next barrier exchange.
  void send(net::Message message);

  // Defers a main-thread send to the next run_cycle's flush slot, where
  // all workers commit staged messages in canonical sender order. This is
  // what keeps driver-initiated sends (publish fan-out, rejoin handshakes)
  // partition-count invariant.
  void stage(net::Message message);

  // Injects a new item at `source` during the current cycle.
  void publish(NodeId source, ItemIdx index, ItemId id);

  // Runs one cycle: deliver due messages, then activate agents.
  void run_cycle();
  void run_cycles(int n);

  // Invoked at the END of every cycle (after agent activation).
  using CycleHook = std::function<void(Engine&, Cycle)>;
  void add_cycle_hook(CycleHook hook) { hooks_.push_back(std::move(hook)); }

  // Closed-form uniform draw over the active set minus `excluding`, using
  // `rng` (exactly uniform, one draw); kNoNode if none. The engine keeps
  // no stream of its own: main-thread callers pass theirs.
  NodeId draw_active(Rng& rng, NodeId excluding) const;
  // Same, minus both `a` and `b` (either may be kNoNode).
  NodeId draw_active_excluding(Rng& rng, NodeId a, NodeId b) const;

 private:
  Config config_;
  Rng stream_root_;  // pristine root for counter-based forks; never drawn
  Rng fault_root_;   // pristine root for the fault layer's counter forks
  Rng net_root_;     // pristine root for per-message network-draw forks
  Cycle now_ = 0;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<bool> active_;
  std::size_t num_active_ = 0;
  std::vector<NodeId> active_ids_;  // ascending; mirrors active_
  std::vector<bool> crashed_;       // crash-fault flag, distinct from churn
  std::vector<std::pair<Cycle, NodeId>> recoveries_;  // scheduled recover()s

  // Gilbert–Elliott per-link chain states, keyed (from << 32) | to and
  // created lazily at a link's first use while bursty loss is enabled.
  // Advancing a chain draws one counter-based bernoulli per elapsed cycle
  // from fault_root_.fork(link, cycle), so the state sequence is a pure
  // function of the seed — independent of traffic volume and thread count.
  struct LinkState {
    Cycle cycle = 0;
    bool bad = false;
  };
  std::unordered_map<std::uint64_t, LinkState> link_state_;

  // Per-node per-cycle streams, reseeded lazily on first use in a cycle.
  std::vector<Rng> node_rng_;
  std::vector<Cycle> node_rng_cycle_;

  std::size_t shard_nodes_ = kDefaultShardNodes;
  std::vector<std::unique_ptr<Shard>> shards_;
  unsigned threads_ = 1;
  std::unique_ptr<WorkerPool> pool_;
  std::atomic<bool> in_phase_{false};

  // Fragment partitioning (sim/transport.hpp). Every worker runs the full
  // control plane (scenario events, crash draws, calendar) in lockstep;
  // only agent execution and mailbox storage are partitioned by ownership.
  SocketTransport* transport_ = nullptr;  // not owned; nullptr = single fragment
  std::size_t fragments_ = 1;
  std::size_t fragment_ = 0;

  // Deferred main-thread sends (publish fan-out, rejoin handshakes),
  // committed at the next run_cycle's flush slot in canonical sender order.
  std::vector<net::Message> staged_;
  // Commit-slot scratch: locally owned routed messages, sorted by sender
  // and merged with the peers' exchanged batches before bucket insertion.
  std::vector<PendingMessage> pending_local_;
  // Serialized envelope batches per destination fragment (fragment mode).
  std::vector<std::vector<std::uint8_t>> wire_out_;

  // Which of the cycle's three barrier slots finish_slot() is closing
  // (0 = flush, 1 = deliver commit, 2 = activate commit). Telemetry label
  // only — slot-attributed transport timings/bytes in src/obs/.
  int slot_kind_ = 0;

  // Per-sender per-cycle send counters keying the per-message network-draw
  // streams: fork(net_root_, sender, counter·2³² | cycle). A sender's
  // messages are always routed at its owner in canonical order, so the
  // counters — and hence every loss/latency draw — are pure functions of
  // the seed and the trajectory, invariant to fragment count.
  std::vector<std::uint32_t> send_count_;
  std::vector<Cycle> send_count_cycle_;

  net::Traffic traffic_;
  DisseminationObserver* observer_ = nullptr;
  std::vector<CycleHook> hooks_;

  std::size_t window() const;
  // Advances the (from, to) burst chain to the current cycle and returns
  // whether the link is in the bad state.
  bool link_bad(NodeId from, NodeId to);
  // Per-cycle fault-layer passes (run_cycle start; no-ops when disabled).
  void process_recoveries();
  void apply_random_crashes();
  std::size_t shard_index(NodeId node) const { return node / shard_nodes_; }
  Shard& shard_for(NodeId node);
  // Sizes the shard vector and mailbox rings for the current node count
  // and network window.
  void ensure_shards();
  void run_phase(const std::function<void(Shard&)>& phase);
  // Barrier work after a phase: replay buffered observer events, merge
  // drop counts, and commit outboxes — all in ascending shard order.
  void commit_phase();
  void deliver_shard(Shard& shard);
  void activate_shard(Shard& shard);
  // The message's private network-draw stream (see send_count_ above).
  Rng message_rng(NodeId from);
  // Applies the network model to one message (traffic, loss, latency,
  // reorder, duplicate) and queues the survivors: locally owned
  // destinations into pending_local_, remote ones serialized into
  // wire_out_. Part of a commit slot — finish_slot() must follow.
  void route_message(net::Message message);
  // Closes a commit slot: barrier-exchanges wire_out_ (fragment mode),
  // decodes the peers' batches, restores canonical ascending-sender order
  // and inserts everything into the destination mailbox rings.
  void finish_slot();
  // The run_cycle flush slot committing staged main-thread sends.
  void flush_staged();
};

}  // namespace whatsup::sim
