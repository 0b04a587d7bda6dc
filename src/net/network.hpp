// Network conditions for a simulated deployment: uniform message loss,
// delivery latency (in cycles) with jitter, and a per-node inbox capacity
// modelling queue overflow on overloaded hosts.
//
// Presets mirror the paper's three settings (§V-D/E): ideal simulation,
// the ModelNet cluster (small residual loss) and PlanetLab (heavy
// congestion-induced loss — the paper measured up to ~30% of news never
// reaching their target at low fanouts).
//
// Beyond the uniform model, the config carries an optional fault layer:
// Gilbert–Elliott bursty loss (a good/bad Markov state per directed link),
// message duplication and reordering probabilities, and random crash-stop /
// crash-recovery node faults. Every fault knob is off by default and the
// engine checks it before drawing any randomness, so fixed-seed baseline
// trajectories are bit-identical whether the fault layer is compiled in or
// not (the same contract partition_cross_loss already honors).
#pragma once

#include <cstddef>
#include <string>

#include "common/ids.hpp"

namespace whatsup::net {

// Gilbert–Elliott two-state loss chain, evaluated per directed link. Each
// link starts in the good state; every cycle it enters the bad state with
// probability p_enter and leaves it with probability p_exit. Messages are
// dropped with loss_good / loss_bad depending on the link's state. The
// engine advances each link's chain with counter-based draws keyed on
// (link, cycle), so the state sequence is a pure function of the seed —
// independent of traffic volume, thread count and shard width.
struct BurstLossModel {
  double p_enter = 0.0;   // good -> bad transition probability per cycle
  double p_exit = 0.5;    // bad -> good transition probability per cycle
  double loss_good = 0.0; // drop probability while the link is good
  double loss_bad = 0.0;  // drop probability while the link is bad

  bool enabled() const { return p_enter > 0.0 && (loss_bad > 0.0 || loss_good > 0.0); }
  friend bool operator==(const BurstLossModel&, const BurstLossModel&) = default;
};

struct NetworkConfig {
  double loss_rate = 0.0;          // i.i.d. drop probability per message
  Cycle latency = 1;               // delivery delay in cycles (>= 1)
  Cycle jitter = 0;                // extra uniform delay in [0, jitter]
  std::size_t inbox_capacity = 0;  // max deliveries per node per cycle; 0 = unbounded

  // Regional partition (scenario-engine network episodes): nodes with
  // id < partition_nodes form region A, the rest region B; cross-region
  // messages are dropped with probability partition_cross_loss (1.0 =
  // full cut). 0 = no partition. Loss and latency draws are unaffected
  // when disabled, so baseline fixed-seed trajectories do not move.
  NodeId partition_nodes = 0;
  double partition_cross_loss = 1.0;

  // Fault layer (all off by default; zero extra RNG draws when off).
  BurstLossModel burst;       // per-link bursty loss
  double duplicate_rate = 0.0;  // probability a delivered message is duplicated
  double reorder_rate = 0.0;    // probability a message takes an extra detour
  Cycle reorder_window = 2;     // detour length: extra uniform delay in [1, window]
  // Random node faults: each cycle every active node crashes with
  // probability crash_rate; a crashed node loses its in-flight messages and
  // either stays down forever (crash_recovery == 0, crash-stop) or comes
  // back after crash_recovery cycles via the agent's recovery hook.
  double crash_rate = 0.0;
  Cycle crash_recovery = 0;

  bool partitioned() const { return partition_nodes > 0; }

  static NetworkConfig perfect();
  static NetworkConfig lossy(double loss_rate);
  static NetworkConfig modelnet();   // cluster emulation: ~1% residual loss
  static NetworkConfig planetlab();  // congested wide-area testbed
  // Fault-layer variants of the two testbeds: the same base conditions
  // plus bursty loss, duplication/reordering and (for PlanetLab) random
  // crash-recovery faults. Used by the fault-sweep benches and the
  // reliability examples; the plain presets stay untouched so existing
  // pinned trajectories do not move.
  static NetworkConfig modelnet_faults();
  static NetworkConfig planetlab_faults();
};

std::string describe(const NetworkConfig& config);

}  // namespace whatsup::net
