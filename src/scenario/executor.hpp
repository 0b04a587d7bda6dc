// Applies a scenario::Timeline to a live deployment.
//
// Lifecycle (all main-thread, between cycles):
//   1. construct — binds the timeline to an engine, the run's workload
//      copy and (when the timeline mutates opinions) a MutableOpinions
//      layer; captures the baseline network config for episode restores.
//   2. prepare() — pre-run workload surgery: flash-crowd re-schedules and
//      spam-item appends. Must run BEFORE the publication calendar is
//      built and the tracker is sized.
//   3. register_adversaries() — appends the declared spammer/free-rider
//      nodes after the honest population (initially offline; their events
//      bring them up). Freezes the honest population size.
//   4. begin_cycle(c) — once per cycle, immediately before
//      Engine::run_cycle(): applies episode restores due at c, then every
//      event with cycle <= c in canonical (cycle, seq) order, then the
//      due rotating-churn steps.
//
// Determinism contract: every random choice an event makes is drawn from
// a reserved counter-based substream — a pure function of (scenario seed,
// event seq, event cycle) — and events run on the main thread at cycle
// barriers, so fixed-seed scenario runs are bit-identical for any worker
// thread count and any shard width (tests/test_determinism.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dataset/workload.hpp"
#include "net/network.hpp"
#include "scenario/adversary.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/opinions.hpp"

namespace whatsup::scenario {

class Executor {
 public:
  struct Hooks {
    // §V-C cold start for join-clone events: wire `joiner` from `contact`
    // (protocol-specific — e.g. WhatsUpAgent::cold_start_from). When
    // unset, the joiner comes up with whatever views it was built with.
    std::function<void(sim::Engine&, NodeId joiner, NodeId contact)> cold_start;
  };

  // `opinions` may be null iff the timeline never mutates opinions
  // (throws std::invalid_argument otherwise). `workload` must outlive the
  // executor and is mutated by prepare().
  Executor(const Timeline& timeline, sim::Engine& engine, data::Workload& workload,
           sim::MutableOpinions* opinions, std::uint64_t seed);

  void prepare();
  void register_adversaries();
  void begin_cycle(Cycle cycle);

  Hooks& hooks() { return hooks_; }

  // Observability for tests: the registered adversaries (engine owns
  // them) and the spam-item index range appended by prepare().
  const std::vector<SpammerAgent*>& spammer_agents() const { return spammers_; }
  const std::vector<FreeRiderAgent*>& free_rider_agents() const { return free_riders_; }
  ItemIdx first_spam_item() const { return first_spam_item_; }
  std::size_t num_spam_items() const { return num_spam_items_; }

 private:
  void apply(const Event& event, Rng& rng);
  void refresh_network();
  // Distinct members of `pool` chosen uniformly (k clamped to pool size).
  std::vector<NodeId> pick(Rng& rng, const std::vector<NodeId>& pool, std::size_t k);

  const Timeline* timeline_;
  sim::Engine* engine_;
  data::Workload* workload_;
  sim::MutableOpinions* opinions_;
  Rng root_;  // pristine; events fork (seq, cycle) substreams
  Hooks hooks_;

  std::size_t honest_n_ = 0;
  bool prepared_ = false;

  // Network episodes active right now, in application order; each expires
  // at its own `until`, and within a kind the most recently applied
  // still-active episode wins — so overlapping bursts nest instead of the
  // first restore wiping a longer-running one.
  net::NetworkConfig baseline_;
  struct ActiveLoss {
    double rate;
    Cycle until;
  };
  struct ActivePartition {
    NodeId boundary;
    double cross_loss;
    Cycle until;
  };
  struct ActiveBurst {
    net::BurstLossModel model;
    Cycle until;
  };
  struct ActiveDegrade {
    Cycle latency;
    Cycle jitter;
    double dup;
    double reorder;
    Cycle until;
  };
  std::vector<ActiveLoss> active_losses_;
  std::vector<ActivePartition> active_partitions_;
  std::vector<ActiveBurst> active_bursts_;
  std::vector<ActiveDegrade> active_degrades_;

  std::size_t next_event_ = 0;
  struct RunningChurn {
    Cycle start;
    ChurnProcess process;
  };
  std::vector<RunningChurn> churns_;

  // Adversary nodes keyed by the declaring event's seq (activated when
  // the event fires).
  std::map<std::uint32_t, std::vector<NodeId>> adversaries_by_event_;
  std::vector<SpammerAgent*> spammers_;
  std::vector<FreeRiderAgent*> free_riders_;
  ItemIdx first_spam_item_ = kNoItem;
  std::size_t num_spam_items_ = 0;
};

}  // namespace whatsup::scenario
