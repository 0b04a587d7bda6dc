// Determinism contract of the sharded scheduler: a fixed seed produces a
// bit-identical trajectory — per-cycle metrics::Tracker digests AND
// traffic totals — for ANY worker-thread count, including under lossy /
// jittery / capacity-limited networks and under churn (nodes leaving and
// returning mid-run). See docs/architecture.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/experiments.hpp"
#include "analysis/runner.hpp"
#include "dataset/survey.hpp"
#include "metrics/tracker.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/transport.hpp"
#include "whatsup/node.hpp"

namespace whatsup {
namespace {

constexpr std::uint64_t kSeed = 20260731;

std::vector<unsigned> thread_counts() {
  std::vector<unsigned> counts{1, 2, 4, 8};
  // CI widens the matrix with one more width (see ci.yml); values already
  // in the matrix are skipped rather than re-run.
  if (const char* env = std::getenv("WHATSUP_TEST_THREADS"); env != nullptr) {
    const int extra = std::atoi(env);
    if (extra > 0 && std::find(counts.begin(), counts.end(),
                               static_cast<unsigned>(extra)) == counts.end()) {
      counts.push_back(static_cast<unsigned>(extra));
    }
  }
  return counts;
}

struct Trajectory {
  std::vector<std::uint64_t> cycle_digests;
  std::vector<std::size_t> cycle_messages;
  double f1 = 0.0;

  bool operator==(const Trajectory&) const = default;
};

// One full WhatsUp deployment driven cycle by cycle, digesting the tracker
// after every cycle. `churn` flips a rotating slice of nodes off and back
// on every few cycles.
Trajectory run_trajectory(unsigned threads, const net::NetworkConfig& network,
                          bool churn) {
  Rng rng(kSeed);
  data::SurveyConfig sc;
  sc.base_users = 60;
  sc.base_items = 80;
  sc.replication = 2;
  data::Workload workload = data::make_survey(sc, rng);
  workload.schedule_publications(3, 40, rng);

  sim::Engine::Config ec;
  ec.seed = rng.next_u64();
  ec.network = network;
  ec.threads = threads;
  ec.shard_nodes = 16;  // force several shards even at this small scale
  sim::Engine engine(ec);

  analysis::WorkloadOpinions opinions(workload);
  WhatsUpConfig wu;
  wu.params.f_like = 6;
  const std::size_t n = workload.num_users();
  std::vector<WhatsUpAgent*> agents;
  for (NodeId v = 0; v < n; ++v) {
    auto agent = std::make_unique<WhatsUpAgent>(v, wu, opinions);
    agents.push_back(agent.get());
    engine.add_agent(std::move(agent));
  }
  for (NodeId v = 0; v < n; ++v) {
    std::vector<net::Descriptor> seed_view;
    for (int i = 0; i < wu.params.rps_view_size; ++i) {
      NodeId peer = v;
      while (peer == v) peer = static_cast<NodeId>(rng.index(n));
      seed_view.push_back(net::Descriptor{peer, -1, nullptr});
    }
    agents[v]->bootstrap_rps(std::move(seed_view));
  }

  metrics::Tracker tracker(n, workload.num_items());
  tracker.attach(engine);

  std::map<Cycle, std::vector<ItemIdx>> calendar;
  for (const data::NewsSpec& spec : workload.news) {
    calendar[spec.publish_at].push_back(spec.index);
  }

  Trajectory out;
  constexpr Cycle kTotal = 50;
  for (Cycle c = 0; c < kTotal; ++c) {
    if (churn && c >= 10 && c % 5 == 0) {
      // Rotate a 10-node slice offline; bring the previous slice back.
      const auto offline = static_cast<NodeId>(((c / 5) * 10) % n);
      const auto online = static_cast<NodeId>(((c / 5 - 1) * 10) % n);
      for (NodeId d = 0; d < 10; ++d) {
        engine.set_active((offline + d) % static_cast<NodeId>(n), false);
        engine.set_active((online + d) % static_cast<NodeId>(n), true);
      }
    }
    if (const auto it = calendar.find(c); it != calendar.end()) {
      for (ItemIdx item : it->second) {
        if (engine.is_active(workload.news[item].source)) {
          engine.publish(workload.news[item].source, item, workload.news[item].id);
        }
      }
    }
    engine.run_cycle();
    out.cycle_digests.push_back(tracker.digest());
    out.cycle_messages.push_back(engine.traffic().total_messages());
  }
  const auto reached = tracker.reached_sets();
  std::vector<ItemIdx> measured;
  for (const data::NewsSpec& spec : workload.news) measured.push_back(spec.index);
  out.f1 = metrics::compute_scores(workload, reached, measured).f1;
  return out;
}

void expect_identical_across_threads(const net::NetworkConfig& network, bool churn) {
  const std::vector<unsigned> counts = thread_counts();
  const Trajectory baseline = run_trajectory(counts.front(), network, churn);
  ASSERT_EQ(baseline.cycle_digests.size(), 50u);
  // The run must actually disseminate something, or the digests vacuously
  // agree.
  EXPECT_GT(baseline.cycle_messages.back(), 0u);
  for (std::size_t i = 1; i < counts.size(); ++i) {
    const Trajectory other = run_trajectory(counts[i], network, churn);
    EXPECT_EQ(baseline.cycle_digests, other.cycle_digests)
        << "tracker digests diverged at threads=" << counts[i];
    EXPECT_EQ(baseline.cycle_messages, other.cycle_messages)
        << "traffic diverged at threads=" << counts[i];
    EXPECT_EQ(baseline.f1, other.f1);
  }
}

TEST(Determinism, PerfectNetworkIdenticalAcrossThreadCounts) {
  expect_identical_across_threads(net::NetworkConfig{}, /*churn=*/false);
}

TEST(Determinism, LossyJitteryCapacityNetworkIdenticalAcrossThreadCounts) {
  net::NetworkConfig network;
  network.loss_rate = 0.08;
  network.latency = 2;
  network.jitter = 3;
  network.inbox_capacity = 25;
  expect_identical_across_threads(network, /*churn=*/false);
}

TEST(Determinism, ChurnIdenticalAcrossThreadCounts) {
  net::NetworkConfig network;
  network.loss_rate = 0.03;
  network.jitter = 1;
  expect_identical_across_threads(network, /*churn=*/true);
}

// Fault interactions: a regional partition with partial cross-loss,
// Gilbert–Elliott bursty links, jitter, duplication and reordering all
// active at once. Every fault draw comes from a per-message stream in
// canonical commit order or from counter-based per-link chains, so the
// combined trajectory must stay a pure function of the seed.
TEST(Determinism, PartitionBurstJitterInteractionIdenticalAcrossThreadCounts) {
  net::NetworkConfig network;
  network.partition_nodes = 25;  // splits the 60-node population
  network.partition_cross_loss = 0.6;
  network.burst.p_enter = 0.1;
  network.burst.p_exit = 0.3;
  network.burst.loss_bad = 0.5;
  network.jitter = 2;
  network.duplicate_rate = 0.05;
  network.reorder_rate = 0.1;
  expect_identical_across_threads(network, /*churn=*/true);
}

TEST(Determinism, RunProtocolIdenticalAcrossThreadCounts) {
  Rng rng(7);
  data::SurveyConfig sc;
  sc.base_users = 50;
  sc.base_items = 60;
  sc.replication = 2;
  const data::Workload workload = data::make_survey(sc, rng);
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 6;
  config.seed = 5;
  config.network.loss_rate = 0.05;
  config.network.jitter = 2;

  config.threads = 1;
  const analysis::RunResult base = analysis::run_protocol(workload, config);
  for (const unsigned threads : thread_counts()) {
    config.threads = threads;
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    EXPECT_EQ(base.scores.f1, result.scores.f1) << "threads=" << threads;
    EXPECT_EQ(base.news_messages, result.news_messages);
    EXPECT_EQ(base.gossip_messages, result.gossip_messages);
    EXPECT_EQ(base.kbps_total, result.kbps_total);
    EXPECT_EQ(base.overlay.lscc_fraction, result.overlay.lscc_fraction);
  }
}

// The full scale-out run pipeline — BOOTSTRAP phase (parallel agent
// construction + per-node-stream view seeding), CSR overlay collection
// and the parallel score/histogram reductions — must be bit-identical
// across worker-thread counts AND shard widths: every stage either draws
// from per-node counter-based streams or merges fixed-size chunks in
// ascending order.
TEST(Determinism, RunPipelineIdenticalAcrossThreadsAndShardWidths) {
  Rng rng(13);
  data::SurveyConfig sc;
  sc.base_users = 60;
  sc.base_items = 70;
  sc.replication = 2;
  const data::Workload workload = data::make_survey(sc, rng);
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 6;
  config.seed = 21;
  config.network.loss_rate = 0.04;
  config.network.jitter = 1;

  config.threads = 1;
  config.shard_nodes = 16;
  const analysis::RunResult base = analysis::run_protocol(workload, config);
  const struct {
    unsigned threads;
    std::size_t shard_nodes;
  } grid[] = {{1, 64}, {4, 16}, {4, 32}, {2, 0 /* engine default */}};
  for (const auto& point : grid) {
    config.threads = point.threads;
    config.shard_nodes = point.shard_nodes;
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    SCOPED_TRACE(testing::Message() << "threads=" << point.threads
                                    << " shard_nodes=" << point.shard_nodes);
    EXPECT_EQ(base.scores.precision, result.scores.precision);
    EXPECT_EQ(base.scores.recall, result.scores.recall);
    EXPECT_EQ(base.scores.f1, result.scores.f1);
    EXPECT_EQ(base.news_messages, result.news_messages);
    EXPECT_EQ(base.gossip_messages, result.gossip_messages);
    EXPECT_EQ(base.kbps_total, result.kbps_total);
    // Overlay stats come off the CSR collection path.
    EXPECT_EQ(base.overlay.lscc_fraction, result.overlay.lscc_fraction);
    EXPECT_EQ(base.overlay.clustering, result.overlay.clustering);
    EXPECT_EQ(base.overlay.components, result.overlay.components);
    // Histogram reductions (fixed chunks, in-order merge).
    EXPECT_EQ(base.dislike_fractions, result.dislike_fractions);
    // Per-user reduction (disjoint user ranges).
    EXPECT_EQ(base.per_user.precision, result.per_user.precision);
    EXPECT_EQ(base.per_user.recall, result.per_user.recall);
    // Tracker state itself, set by set (pins the whole trajectory).
    ASSERT_EQ(base.reached.size(), result.reached.size());
    for (std::size_t i = 0; i < base.reached.size(); ++i) {
      EXPECT_EQ(base.reached[i], result.reached[i]) << "item " << i;
    }
  }
}

// A scenario-driven run — churn wave + loss burst + interest drift + one
// spammer, all applied by scenario::Executor at cycle barriers from a
// reserved counter-based substream — must produce bit-identical per-cycle
// Tracker::digest() sequences for any worker-thread count and any shard
// width (the scenario engine's determinism contract; the spec below is
// scenarios/kitchen_sink.scn at test scale).
TEST(Determinism, ScenarioRunIdenticalAcrossThreadsAndShardWidths) {
  constexpr const char* kSpec =
      "name kitchen-sink\n"
      "at 6 spammers 1 items 3 fanout 6\n"
      "at 8 churn 8 every 4 until 24\n"
      "at 10 loss 0.25 until 18\n"
      "at 14 drift 3\n"
      "at 20 leave 6\n";
  Rng rng(29);
  data::SurveyConfig sc;
  sc.base_users = 60;
  sc.base_items = 70;
  sc.replication = 2;
  const data::Workload workload = data::make_survey(sc, rng);
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 6;
  config.seed = 31;
  config.network.loss_rate = 0.02;
  config.network.jitter = 1;
  config.scenario = scenario::parse(kSpec);
  config.collect_cycle_digests = true;

  config.threads = 1;
  config.shard_nodes = 16;
  const analysis::RunResult base = analysis::run_protocol(workload, config);
  ASSERT_EQ(base.cycle_digests.size(),
            static_cast<std::size_t>(config.total_cycles()));
  EXPECT_GT(base.news_messages, 0u);
  ASSERT_FALSE(base.windows.empty());
  const struct {
    unsigned threads;
    std::size_t shard_nodes;
  } grid[] = {{4, 16}, {1, 64}, {4, 64}, {2, 0 /* engine default */}};
  for (const auto& point : grid) {
    config.threads = point.threads;
    config.shard_nodes = point.shard_nodes;
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    SCOPED_TRACE(testing::Message() << "threads=" << point.threads
                                    << " shard_nodes=" << point.shard_nodes);
    // The per-cycle digest series pins the whole measured trajectory.
    EXPECT_EQ(base.cycle_digests, result.cycle_digests);
    EXPECT_EQ(base.news_messages, result.news_messages);
    EXPECT_EQ(base.gossip_messages, result.gossip_messages);
    EXPECT_EQ(base.kbps_total, result.kbps_total);
    EXPECT_EQ(base.scores.f1, result.scores.f1);
    ASSERT_EQ(base.windows.size(), result.windows.size());
    for (std::size_t w = 0; w < base.windows.size(); ++w) {
      EXPECT_EQ(base.windows[w].scores.precision, result.windows[w].scores.precision);
      EXPECT_EQ(base.windows[w].scores.recall, result.windows[w].scores.recall);
    }
  }
}

// The full hostile-network stack at once — scenario-driven bursty loss,
// degraded links (latency/jitter/duplication/reordering), a crash wave
// with scheduled recoveries, rotating churn, plus random crash-recovery
// faults and the ack/retransmit + view-hygiene machinery — must still be
// bit-identical per cycle across worker-thread counts AND shard widths
// (the acceptance grid: threads ∈ {1, 4} × two widths). Retransmission
// jitter comes from the reserved per-node reliability substream and crash
// draws from the fault stream, so none of it can perturb commit order.
TEST(Determinism, FaultReliabilityScenarioIdenticalAcrossThreadsAndShardWidths) {
  constexpr const char* kSpec =
      "name hostile\n"
      "at 2 burst 0.15 0.25 0.5 until 26\n"
      "at 4 degrade latency 1 jitter 2 dup 0.05 reorder 0.1 until 24\n"
      "at 8 churn 6 every 4 until 22\n"
      "at 10 partition 0.5 xloss 0.7 until 16\n"
      "at 12 crash 5 for 6\n"
      "at 18 crash 3\n";
  Rng rng(37);
  data::SurveyConfig sc;
  sc.base_users = 60;
  sc.base_items = 70;
  sc.replication = 2;
  const data::Workload workload = data::make_survey(sc, rng);
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 6;
  config.seed = 43;
  config.network.jitter = 1;
  config.network.crash_rate = 0.002;  // random crash-recovery faults
  config.network.crash_recovery = 5;
  config.reliability.enabled = true;
  config.reliability.ack_timeout = 2;
  config.view_hygiene.max_age = 15;
  config.view_hygiene.suspicion_limit = 2;
  config.scenario = scenario::parse(kSpec);
  config.collect_cycle_digests = true;

  config.threads = 1;
  config.shard_nodes = 16;
  const analysis::RunResult base = analysis::run_protocol(workload, config);
  ASSERT_EQ(base.cycle_digests.size(),
            static_cast<std::size_t>(config.total_cycles()));
  EXPECT_GT(base.news_messages, 0u);
  // The reliability layer must actually have engaged, or the grid below
  // never exercises the retransmission path.
  EXPECT_GT(base.reliability.tracked, 0u);
  EXPECT_GT(base.reliability.ack_messages, 0u);
  const struct {
    unsigned threads;
    std::size_t shard_nodes;
  } grid[] = {{1, 64}, {4, 16}, {4, 64}, {2, 0 /* engine default */}};
  for (const auto& point : grid) {
    config.threads = point.threads;
    config.shard_nodes = point.shard_nodes;
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    SCOPED_TRACE(testing::Message() << "threads=" << point.threads
                                    << " shard_nodes=" << point.shard_nodes);
    // The per-cycle digest series pins the whole measured trajectory.
    EXPECT_EQ(base.cycle_digests, result.cycle_digests);
    EXPECT_EQ(base.news_messages, result.news_messages);
    EXPECT_EQ(base.gossip_messages, result.gossip_messages);
    EXPECT_EQ(base.kbps_total, result.kbps_total);
    EXPECT_EQ(base.scores.f1, result.scores.f1);
    // Reliability accounting is part of the deterministic state too.
    EXPECT_EQ(base.reliability.tracked, result.reliability.tracked);
    EXPECT_EQ(base.reliability.retransmits, result.reliability.retransmits);
    EXPECT_EQ(base.reliability.acked, result.reliability.acked);
    EXPECT_EQ(base.reliability.expired, result.reliability.expired);
    EXPECT_EQ(base.reliability.ack_messages, result.reliability.ack_messages);
    EXPECT_EQ(base.reliability.duplicates, result.reliability.duplicates);
    EXPECT_EQ(base.reliability.deliveries, result.reliability.deliveries);
  }
}

// Fragment partitioning (sim/transport.hpp) must be invisible in the
// trajectory: running the SAME deployment as P lockstep workers — each
// owning the round-robin node fragment v % P, exchanging serialized
// envelopes over a socket mesh at commit-slot barriers — yields per-cycle
// partial Tracker digests that SUM (mod 2^64, the digest is commutative)
// to the single-process series, for any partition count × worker-thread
// count × shard width. Traffic totals sum the same way (each message is
// routed exactly once, by its sender's owner). The grid includes loss,
// jitter, bursty links, duplication, reordering, churn and a spammer so
// the sender-side network draws and the adversary path are all exercised
// across the fragment seam.
TEST(Determinism, PartitionCountInvariance) {
  constexpr const char* kSpec =
      "name partition-invariance\n"
      "at 6 spammers 1 items 2 fanout 6\n"
      "at 8 churn 6 every 5 until 20\n"
      "at 12 drift 2\n";
  Rng rng(47);
  data::SurveyConfig sc;
  sc.base_users = 60;
  sc.base_items = 70;
  sc.replication = 2;
  const data::Workload workload = data::make_survey(sc, rng);
  analysis::RunConfig base_config;
  base_config.approach = analysis::Approach::kWhatsUp;
  base_config.fanout = 6;
  base_config.seed = 53;
  base_config.network.loss_rate = 0.04;
  base_config.network.jitter = 1;
  base_config.network.duplicate_rate = 0.03;
  base_config.network.reorder_rate = 0.05;
  base_config.network.burst.p_enter = 0.05;
  base_config.network.burst.p_exit = 0.3;
  base_config.network.burst.loss_bad = 0.4;
  base_config.scenario = scenario::parse(kSpec);
  base_config.collect_cycle_digests = true;

  struct Partial {
    std::vector<std::uint64_t> digests;
    std::size_t news = 0;
    std::size_t gossip = 0;
  };
  // Runs the deployment as `partitions` lockstep workers (threads stand in
  // for the launcher's processes; the transport contract is identical) and
  // reduces the partial digest series by summation.
  const auto run_partitioned = [&](std::size_t partitions, unsigned threads,
                                   std::size_t shard_nodes) {
    analysis::RunConfig config = base_config;
    config.threads = threads;
    config.shard_nodes = shard_nodes;
    if (partitions <= 1) {
      const analysis::RunResult r = analysis::run_protocol(workload, config);
      return Partial{r.cycle_digests, r.news_messages, r.gossip_messages};
    }
    config.partitions = static_cast<int>(partitions);
    std::vector<std::vector<int>> mesh = sim::socketpair_mesh(partitions);
    std::vector<Partial> partials(partitions);
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < partitions; ++w) {
      workers.emplace_back([&, w] {
        sim::SocketTransport transport(w, std::move(mesh[w]));
        analysis::RunConfig worker_config = config;
        worker_config.transport = &transport;
        const analysis::RunResult r = analysis::run_protocol(workload, worker_config);
        partials[w] = Partial{r.cycle_digests, r.news_messages, r.gossip_messages};
      });
    }
    for (std::thread& t : workers) t.join();
    Partial sum = std::move(partials[0]);
    for (std::size_t w = 1; w < partitions; ++w) {
      EXPECT_EQ(partials[w].digests.size(), sum.digests.size());
      for (std::size_t c = 0; c < sum.digests.size(); ++c) {
        sum.digests[c] += partials[w].digests[c];
      }
      sum.news += partials[w].news;
      sum.gossip += partials[w].gossip;
    }
    return sum;
  };

  struct GridPoint {
    std::size_t partitions;
    unsigned threads;
    std::size_t shard_nodes;
  };
  // The storm-spread calendar (publish_spread > 0) must satisfy the same
  // invariance: spreading is a pure function of the already-drawn calendar
  // (Workload::spread_publication_storms), so every worker derives the
  // identical staggered schedule with zero extra RNG draws. A reduced grid
  // re-checks the seam under the staggered calendar.
  const std::vector<GridPoint> full_grid = {
      {1, 4, 64}, {1, 1, 0}, {2, 1, 0},  {2, 4, 64},
      {4, 1, 64}, {4, 4, 0}, {2, 1, 64}, {4, 1, 0}};
  const std::vector<GridPoint> spread_grid = {{1, 4, 64}, {2, 1, 0}, {4, 4, 64}};
  std::vector<std::uint64_t> dense_digests;
  for (const Cycle spread : {Cycle{0}, Cycle{3}}) {
    base_config.publish_spread = spread;
    const Partial base = run_partitioned(1, 1, 16);
    ASSERT_EQ(base.digests.size(),
              static_cast<std::size_t>(base_config.total_cycles()));
    EXPECT_GT(base.news, 0u);
    if (spread == 0) {
      dense_digests = base.digests;
    } else {
      // Spreading must actually move publications (not silently no-op).
      EXPECT_NE(base.digests, dense_digests);
    }
    for (const GridPoint& point : spread == 0 ? full_grid : spread_grid) {
      SCOPED_TRACE(testing::Message()
                   << "spread=" << spread << " partitions=" << point.partitions
                   << " threads=" << point.threads
                   << " shard_nodes=" << point.shard_nodes);
      const Partial other =
          run_partitioned(point.partitions, point.threads, point.shard_nodes);
      EXPECT_EQ(base.digests, other.digests);
      EXPECT_EQ(base.news, other.news);
      EXPECT_EQ(base.gossip, other.gossip);
    }
  }
}

// The shard width changes how barrier work is grouped but must not change
// the simulation state (delivery order per node and all RNG streams are
// width-invariant).
TEST(Determinism, ShardWidthDoesNotChangeTrackerState) {
  // Reuse run_trajectory at width 16 vs. an engine-default-width run via a
  // direct comparison at two explicit widths.
  const auto run_width = [](std::size_t width) {
    Rng rng(kSeed);
    data::SurveyConfig sc;
    sc.base_users = 40;
    sc.base_items = 50;
    sc.replication = 2;
    data::Workload workload = data::make_survey(sc, rng);
    workload.schedule_publications(2, 20, rng);
    sim::Engine::Config ec;
    ec.seed = rng.next_u64();
    ec.threads = 4;
    ec.shard_nodes = width;
    sim::Engine engine(ec);
    analysis::WorkloadOpinions opinions(workload);
    WhatsUpConfig wu;
    const std::size_t n = workload.num_users();
    std::vector<WhatsUpAgent*> agents;
    for (NodeId v = 0; v < n; ++v) {
      auto agent = std::make_unique<WhatsUpAgent>(v, wu, opinions);
      agents.push_back(agent.get());
      engine.add_agent(std::move(agent));
    }
    for (NodeId v = 0; v < n; ++v) {
      std::vector<net::Descriptor> seed_view;
      for (int i = 0; i < wu.params.rps_view_size; ++i) {
        NodeId peer = v;
        while (peer == v) peer = static_cast<NodeId>(rng.index(n));
        seed_view.push_back(net::Descriptor{peer, -1, nullptr});
      }
      agents[v]->bootstrap_rps(std::move(seed_view));
    }
    metrics::Tracker tracker(n, workload.num_items());
    tracker.attach(engine);
    std::map<Cycle, std::vector<ItemIdx>> calendar;
    for (const data::NewsSpec& spec : workload.news) {
      calendar[spec.publish_at].push_back(spec.index);
    }
    for (Cycle c = 0; c < 30; ++c) {
      if (const auto it = calendar.find(c); it != calendar.end()) {
        for (ItemIdx item : it->second) {
          engine.publish(workload.news[item].source, item, workload.news[item].id);
        }
      }
      engine.run_cycle();
    }
    return tracker.digest();
  };
  EXPECT_EQ(run_width(8), run_width(64));
}

// Golden trajectories for the opt-in protocol layers: per-cycle digests of
// one fixed deployment, plain, with profile obfuscation, and with
// obfuscation plus the PlanetLab fault model, the ack/retransmit layer and
// view hygiene. The other tests here compare runs with each other; these
// pin the trajectory itself, so a refactor of the obfuscation,
// reliability or hygiene paths that changes any message fails here. The
// expected values depend on libstdc++'s hash-table layout (the simulator
// still iterates some unordered containers) until the trajectories are
// made layout-independent and re-baselined (ROADMAP, determinism).
std::uint64_t fold_digests(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t d : digests) {
    h ^= d;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Determinism, OptInLayersGoldenDigests) {
  const data::Workload workload = analysis::standard_workload("survey", 7, 0.2);
  analysis::RunConfig config = analysis::default_run_config(11);
  config.threads = 2;
  config.collect_cycle_digests = true;
  const auto golden = [&]() {
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    EXPECT_EQ(result.cycle_digests.size(),
              static_cast<std::size_t>(config.total_cycles()));
    return fold_digests(result.cycle_digests);
  };

  EXPECT_EQ(golden(), 0x984dfe3fd8b7f83bull) << "plain";

  config.obfuscation.flip_prob = 0.3;
  config.obfuscation.drop_prob = 0.1;
  EXPECT_EQ(golden(), 0xd06f3798573a94c7ull) << "obfuscation";

  config.network = net::NetworkConfig::planetlab_faults();
  config.reliability.enabled = true;
  config.view_hygiene.max_age = 20;
  config.view_hygiene.suspicion_limit = 2;
  EXPECT_EQ(golden(), 0x6257e8200ba1980aull)
      << "obfuscation + planetlab_faults + reliability + hygiene";
}

}  // namespace
}  // namespace whatsup
