// Experiment runner: builds a simulated deployment of one approach over a
// workload, drives the publication schedule, and collects every statistic
// the paper reports (scores, message/bandwidth accounting, overlay graph
// structure, hop and dislike histograms, per-user scores).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "dataset/workload.hpp"
#include "gossip/hygiene.hpp"
#include "metrics/scores.hpp"
#include "metrics/tracker.hpp"
#include "net/network.hpp"
#include "obs/snapshot.hpp"
#include "profile/obfuscation.hpp"
#include "profile/similarity.hpp"
#include "scenario/scenario.hpp"
#include "sim/opinions.hpp"
#include "sim/reliability.hpp"
#include "sim/transport.hpp"
#include "whatsup/params.hpp"

namespace whatsup::analysis {

// The competitors of §IV-B that run on the simulator (C-Pub/Sub and
// C-WhatsUp are closed-form / centralized and evaluated separately).
enum class Approach {
  kWhatsUp,     // WUP metric + BEEP
  kWhatsUpCos,  // cosine metric + BEEP
  kCfWup,       // k-NN CF, WUP metric
  kCfCos,       // k-NN CF, cosine metric
  kGossip,      // homogeneous SIR gossip
  kCascade,     // explicit social cascading (needs workload.social)
};

std::string to_string(Approach approach);
Metric metric_of(Approach approach);

struct RunConfig {
  Approach approach = Approach::kWhatsUp;
  // fLIKE for WhatsUp*, k for CF*, fanout for Gossip; ignored by Cascade.
  int fanout = 10;
  Params params;
  net::NetworkConfig network;
  std::uint64_t seed = 1;
  // Worker threads for the engine's parallel phases (0 = hardware
  // concurrency). Results are bit-identical for any value.
  unsigned threads = 1;
  // Nodes per shard (0 = engine default). Results are bit-identical for
  // any width; exposed so the determinism suite can pin widths.
  std::size_t shard_nodes = 0;

  Cycle warmup_cycles = 5;    // gossip-only cycles before the first item
  Cycle publish_cycles = 50;  // length of the publication phase
  Cycle drain_cycles = 12;    // tail for in-flight items
  // Publication-storm spreading window (cycles): > 1 staggers each cycle's
  // publication burst over the next `publish_spread` cycles after the
  // calendar is drawn (Workload::spread_publication_storms), flattening the
  // synchronized-burst RSS peak. 0/1 = the classic dense calendar.
  Cycle publish_spread = 0;
  // Items published before warmup_cycles + measure_margin are excluded
  // from the user metrics (profiles start empty; the paper measures
  // steady state).
  Cycle measure_margin = 13;

  double cycle_seconds = 30.0;  // wall-clock per cycle (bandwidth reports)

  // BEEP ablation switches (bench/ablation_beep).
  bool beep_amplification = true;
  bool beep_orientation = true;

  // Overrides the approach's default similarity metric (WhatsUp/CF only);
  // used by bench/ablation_metric to slot Jaccard/overlap/Pearson into the
  // same clustering stack.
  std::optional<Metric> metric_override;

  // Profile obfuscation for gossiped snapshots (WhatsUp only, §VII).
  ObfuscationConfig obfuscation;

  // Ack/retransmit reliability layer for BEEP forwards (WhatsUp only;
  // sim/reliability.hpp). Off by default — fault-free runs are bit-
  // identical with the layer compiled in but disabled.
  sim::ReliabilityConfig reliability;
  // Failure-aware view hygiene (WhatsUp only; gossip/hygiene.hpp).
  gossip::ViewHygieneConfig view_hygiene;

  // Declarative event timeline applied at cycle barriers (churn waves,
  // flash crowds, interest drift, network episodes, adversaries — see
  // src/scenario/). When set, the run wraps opinions in a mutable layer
  // as needed, registers the declared adversary nodes after the honest
  // population, and reports per-window scores in RunResult::windows.
  // Events beyond total_cycles() never fire.
  std::optional<scenario::Timeline> scenario;

  // Record metrics::Tracker::digest() after every cycle into
  // RunResult::cycle_digests (the determinism suite's trajectory pin).
  bool collect_cycle_digests = false;

  // Fragment partitioning (sim/transport.hpp). `partitions` is the
  // launcher-level knob (how many lockstep worker processes/threads to
  // run; 1 = the classic single-process engine); each worker passes its
  // own connected SocketTransport here. With a multi-fragment transport
  // the run executes only the owned node fragment, and RunResult carries
  // this worker's PARTIAL per-cycle digests (summing all workers' series mod
  // 2^64 yields the single-process series — Tracker::digest is
  // commutative) plus partial traffic; the agent-dereferencing collection
  // passes (scores, overlay, per-user reductions) are skipped. The
  // transport is not owned and must outlive the run.
  int partitions = 1;
  sim::SocketTransport* transport = nullptr;

  // Observability (src/obs/): heartbeat + per-cycle registry sampling.
  // Pure telemetry — enabling any knob leaves fixed-seed trajectories
  // bit-identical (the obs registry contract). In fragment mode the
  // heartbeat prints from fragment 0 only and the end-of-run stats
  // snapshot is skipped (a fragment would read peers' live lanes).
  obs::RunOptions observability;

  Cycle total_cycles() const { return warmup_cycles + publish_cycles + drain_cycles; }

  // Grows the drain tail so every scenario event fires inside the run
  // (timeline horizon + `margin` settle cycles fit in total_cycles()).
  // No-op without a scenario or when the run is already long enough.
  void fit_scenario_horizon(Cycle margin = 5);
};

struct OverlayStats {
  double lscc_fraction = 0.0;   // Fig. 4
  double clustering = 0.0;      // §V-A clustering coefficient
  std::size_t components = 0;   // §V-A weakly-connected component count
};

// Reliability-layer accounting for the robustness experiments: retransmit
// queue totals summed over all WhatsUp agents, ack control traffic, and
// the tracker's redundancy/latency reductions.
struct ReliabilityStats {
  std::size_t tracked = 0;      // news copies registered for ack
  std::size_t retransmits = 0;  // copies resent on timeout
  std::size_t acked = 0;        // entries cleared by an ack
  std::size_t expired = 0;      // entries dropped after max_retries
  std::size_t ack_messages = 0;  // kCtrl messages on the wire
  std::uint64_t duplicates = 0;  // repeat receipts (multi-path/dup/retx)
  std::uint64_t deliveries = 0;  // unique deliveries
  double redundancy_ratio = 0.0;  // duplicates per unique delivery
  double mean_latency = 0.0;      // cycles, publication -> unique delivery
  // Mean delivery latency per scenario window, aligned with
  // RunResult::windows (NaN-free: windows without deliveries read 0).
  std::vector<double> window_latency;
};

struct RunResult {
  metrics::Scores scores;
  std::vector<ItemIdx> measured;
  // Per item (for Fig. 10 / Fig. 11 post-analysis). Hybrid sparse→dense
  // sets straight from the tracker — resident size scales with actual
  // deliveries, not items × n (common/hybrid_set.hpp).
  std::vector<HybridSet> reached;

  std::size_t news_messages = 0;
  std::size_t gossip_messages = 0;  // RPS + WUP
  double msgs_per_user = 0.0;           // Table III "Mess./User"
  double msgs_per_cycle_node = 0.0;     // Fig. 3d-f x-axis
  double kbps_total = 0.0;              // Fig. 8b
  double kbps_gossip = 0.0;             // RPS + WUP maintenance share
  double kbps_beep = 0.0;               // news share

  OverlayStats overlay;

  std::array<double, 5> dislike_fractions{};  // Table IV (0..4 dislikes)
  metrics::HopCounts hops_per_item;           // Fig. 6 (avg per measured item)
  metrics::PerUserScores per_user;            // Fig. 11

  // Scenario-mode extras (empty without RunConfig::scenario /
  // collect_cycle_digests): per-phase scores around each timeline event,
  // and the per-cycle tracker digest series.
  std::vector<metrics::WindowScores> windows;
  std::vector<std::uint64_t> cycle_digests;

  ReliabilityStats reliability;

  // Observability extras (empty unless RunConfig::observability asks):
  // per-cycle registry samples and the end-of-run merged snapshot
  // (registry + engine memory + tracker + arena).
  std::vector<obs::CycleSample> stats_series;
  obs::Snapshot stats;
};

// Adapter exposing workload ground truth as a sim::Opinions source.
class WorkloadOpinions : public sim::Opinions {
 public:
  explicit WorkloadOpinions(const data::Workload& workload) : workload_(&workload) {}
  bool likes(NodeId user, ItemIdx item) const override {
    return user < workload_->num_users() && workload_->likes(user, item);
  }

 private:
  const data::Workload* workload_;
};

// Runs one full experiment. The workload is copied internally so the
// publication schedule can be (re)drawn from `config.seed`.
RunResult run_protocol(const data::Workload& workload, const RunConfig& config);

}  // namespace whatsup::analysis
