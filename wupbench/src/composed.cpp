#include "composed.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/parallel.hpp"
#include "graph/clustering.hpp"
#include "graph/components.hpp"
#include "graph/scc.hpp"
#include "graph/static_graph.hpp"
#include "obs/trace.hpp"
#include "scenario/executor.hpp"
#include "sim/opinions.hpp"
#include "whatsup/node.hpp"

namespace wupbench {

using namespace whatsup;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Node-range width of run_protocol's overlay passes, kept equal so both
// fill and dedupe the graph over the same ranges.
constexpr std::size_t kCollectChunk = 1024;

// The end-of-run WUP overlay as a CSR graph, built with the same two
// parallel passes (degrees, then edges + per-range dedupe) as
// run_protocol's overlay builder.
graph::StaticGraph overlay_graph(sim::Engine& engine) {
  const std::size_t n = engine.num_nodes();
  const auto view_of = [&engine](NodeId id) -> std::span<const net::Descriptor> {
    if (const auto* wu = dynamic_cast<const WhatsUpAgent*>(&engine.agent(id))) {
      return wu->wup_view().entries();
    }
    return {};  // scenario adversaries contribute no overlay edges
  };
  graph::StaticGraph::Builder builder(n);
  parallel_chunks(&engine, n, kCollectChunk,
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t v = lo; v < hi; ++v) {
                      const auto id = static_cast<NodeId>(v);
                      builder.set_degree(id, view_of(id).size());
                    }
                  });
  builder.finish_degrees();
  parallel_chunks(&engine, n, kCollectChunk,
                  [&](std::size_t, std::size_t lo, std::size_t hi) {
                    for (std::size_t v = lo; v < hi; ++v) {
                      const auto id = static_cast<NodeId>(v);
                      for (const net::Descriptor& d : view_of(id)) {
                        builder.add_edge(id, d.node);
                      }
                    }
                    builder.dedupe_rows(static_cast<NodeId>(lo),
                                        static_cast<NodeId>(hi));
                  });
  return builder.build();
}

// Everything run_protocol does after the last cycle: score reductions,
// traffic and reliability tallies, the overlay statistics and the dislike
// and hop histograms. Reads the engine and tracker without changing them.
void collect(sim::Engine& engine, const metrics::Tracker& tracker,
             const data::Workload& workload, const analysis::RunConfig& config,
             analysis::RunResult& result, double& scores_s, double& overlay_s) {
  const std::size_t n = workload.num_users();
  const Cycle total = config.total_cycles();
  {
    WUP_TRACE_SCOPE("bench.scores");
    const Clock::time_point start = Clock::now();
    const Cycle measure_from = config.warmup_cycles + config.measure_margin;
    for (const data::NewsSpec& spec : workload.news) {
      if (spec.publish_at >= measure_from) result.measured.push_back(spec.index);
    }
    result.reached = tracker.reached_sets();
    result.scores =
        metrics::compute_scores(workload, result.reached, result.measured, &engine);
    result.per_user =
        metrics::per_user_scores(workload, result.reached, result.measured, &engine);
    if (config.scenario.has_value()) {
      const std::vector<metrics::Window> windows = config.scenario->windows(total);
      result.windows = metrics::windowed_scores(workload, result.reached,
                                                result.measured, windows, &engine);
    }
    scores_s = seconds_since(start);
  }

  const net::Traffic& traffic = engine.traffic();
  const auto cycles = static_cast<double>(total);
  result.news_messages = traffic.messages(net::Protocol::kBeep);
  result.gossip_messages =
      traffic.messages(net::Protocol::kRps) + traffic.messages(net::Protocol::kWup);
  result.msgs_per_user =
      static_cast<double>(traffic.total_messages()) / static_cast<double>(n);
  result.msgs_per_cycle_node =
      static_cast<double>(traffic.total_messages()) / cycles / static_cast<double>(n);
  result.kbps_total =
      traffic.kbps_per_node_total(n, cycles, config.cycle_seconds, false);
  result.kbps_gossip =
      traffic.kbps_per_node(net::Protocol::kRps, n, cycles, config.cycle_seconds,
                            false) +
      traffic.kbps_per_node(net::Protocol::kWup, n, cycles, config.cycle_seconds, false);
  result.kbps_beep =
      traffic.kbps_per_node(net::Protocol::kBeep, n, cycles, config.cycle_seconds, false);

  for (NodeId v = 0; v < n; ++v) {
    const auto& agent = dynamic_cast<const WhatsUpAgent&>(engine.agent(v));
    const sim::RetransmitQueue::Stats& s = agent.retransmit_queue().stats();
    result.reliability.tracked += s.tracked;
    result.reliability.retransmits += s.retransmits;
    result.reliability.acked += s.acked;
    result.reliability.expired += s.expired;
  }
  result.reliability.ack_messages = traffic.messages(net::Protocol::kCtrl);
  result.reliability.duplicates = tracker.total_duplicates();
  result.reliability.deliveries = tracker.total_deliveries();
  result.reliability.redundancy_ratio = tracker.redundancy_ratio();
  result.reliability.mean_latency = tracker.mean_latency();
  if (config.scenario.has_value()) {
    const auto& by_cycle = tracker.latency_by_cycle();
    for (const metrics::Window& w : config.scenario->windows(total)) {
      std::uint64_t sum = 0;
      std::uint64_t count = 0;
      for (Cycle c = w.begin; c < w.end; ++c) {
        const auto idx = static_cast<std::size_t>(c);
        if (idx >= by_cycle.size()) break;
        sum += by_cycle[idx].first;
        count += by_cycle[idx].second;
      }
      result.reliability.window_latency.push_back(
          count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count));
    }
  }

  {
    WUP_TRACE_SCOPE("bench.overlay");
    const Clock::time_point start = Clock::now();
    const graph::StaticGraph overlay = overlay_graph(engine);
    result.overlay.lscc_fraction = graph::largest_scc_fraction(overlay);
    result.overlay.clustering = graph::avg_clustering_coefficient(overlay);
    result.overlay.components = graph::weak_components(overlay).count;
    overlay_s = seconds_since(start);
  }

  // Table IV dislike and Fig. 6 hop histograms: the same fixed item chunks
  // and in-order partial merges as run_protocol.
  constexpr std::size_t kItemChunk = 64;
  const std::size_t n_chunks =
      result.measured.empty() ? 0 : (result.measured.size() + kItemChunk - 1) / kItemChunk;
  std::vector<std::array<double, 5>> dislike_partial(n_chunks);
  std::vector<double> dislike_partial_total(n_chunks, 0.0);
  std::vector<metrics::HopCounts> hops_partial(n_chunks);
  parallel_chunks(&engine, result.measured.size(), kItemChunk,
                  [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                    auto& counts = dislike_partial[chunk];
                    counts.fill(0.0);
                    for (std::size_t i = lo; i < hi; ++i) {
                      const ItemIdx item = result.measured[i];
                      const auto& hist = tracker.dislikes_at_liked(item);
                      for (std::size_t bin = 0; bin < hist.size(); ++bin) {
                        counts[std::min<std::size_t>(bin, 4)] +=
                            static_cast<double>(hist[bin]);
                        dislike_partial_total[chunk] += static_cast<double>(hist[bin]);
                      }
                      hops_partial[chunk].accumulate(tracker.hops(item));
                    }
                  });
  std::array<double, 5> dislike_counts{};
  double dislike_total = 0.0;
  for (std::size_t chunk = 0; chunk < n_chunks; ++chunk) {
    for (std::size_t bin = 0; bin < dislike_counts.size(); ++bin) {
      dislike_counts[bin] += dislike_partial[chunk][bin];
    }
    dislike_total += dislike_partial_total[chunk];
    result.hops_per_item.accumulate(hops_partial[chunk]);
  }
  if (dislike_total > 0.0) {
    for (double& c : dislike_counts) c /= dislike_total;
  }
  result.dislike_fractions = dislike_counts;
  if (!result.measured.empty()) {
    const double inv = 1.0 / static_cast<double>(result.measured.size());
    for (auto* hist : {&result.hops_per_item.forward_like, &result.hops_per_item.infect_like,
                       &result.hops_per_item.forward_dislike,
                       &result.hops_per_item.infect_dislike}) {
      for (double& x : *hist) x *= inv;
    }
  }
}

}  // namespace

std::uint64_t fingerprint(const std::vector<std::uint64_t>& cycle_digests) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t digest : cycle_digests) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (digest >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

ComposedRun run_composed(const data::Workload& base_workload,
                         const analysis::RunConfig& config,
                         const ComposedOptions& options) {
  if (config.approach != analysis::Approach::kWhatsUp || config.partitions != 1 ||
      config.transport != nullptr || config.observability.enabled()) {
    throw std::invalid_argument(
        "run_composed: only single-process WhatsUp runs without run-level "
        "observability are composed");
  }
  ComposedRun out;
  RunTiming& timing = out.timing;
  analysis::RunResult& result = out.result;
  std::optional<obs::TraceScope> run_span;
  run_span.emplace("bench.run");

  // ---- Setup ----
  std::optional<obs::TraceScope> stage_span;
  stage_span.emplace("bench.setup");
  const Clock::time_point setup_start = Clock::now();
  data::Workload workload = base_workload;
  Rng rng(config.seed);
  workload.schedule_publications(config.warmup_cycles,
                                 config.warmup_cycles + config.publish_cycles - 1, rng);
  workload.spread_publication_storms(config.publish_spread);

  sim::Engine::Config engine_config;
  engine_config.seed = rng.next_u64();
  engine_config.network = config.network;
  engine_config.threads = config.threads;
  engine_config.shard_nodes = config.shard_nodes;
  sim::Engine engine(engine_config);

  analysis::WorkloadOpinions ground_truth(workload);
  std::optional<sim::MutableOpinions> dynamic_opinions;
  std::optional<scenario::Executor> scenario_exec;
  if (config.scenario.has_value()) {
    if (config.scenario->mutates_opinions()) dynamic_opinions.emplace(ground_truth);
    const std::uint64_t scenario_seed = rng.next_u64();
    scenario_exec.emplace(*config.scenario, engine, workload,
                          dynamic_opinions.has_value() ? &*dynamic_opinions : nullptr,
                          scenario_seed);
    scenario_exec->prepare();
  }
  const sim::Opinions& opinions =
      dynamic_opinions.has_value() ? static_cast<const sim::Opinions&>(*dynamic_opinions)
                                   : ground_truth;

  Params params = config.params;
  params.f_like = config.fanout;
  WhatsUpConfig wu;
  wu.params = params;
  wu.metric = config.metric_override.value_or(analysis::metric_of(config.approach));
  wu.beep_amplification = config.beep_amplification;
  wu.beep_orientation = config.beep_orientation;
  wu.obfuscation = config.obfuscation;
  wu.reliability = config.reliability;
  wu.hygiene = config.view_hygiene;

  const std::size_t n = workload.num_users();
  {
    WUP_TRACE_SCOPE("bench.bootstrap");
    const Clock::time_point start = Clock::now();
    engine.bootstrap(n, [&](NodeId v, Rng& boot_rng) -> std::unique_ptr<sim::Agent> {
      auto agent = std::make_unique<WhatsUpAgent>(v, wu, opinions);
      // RPS seeding as run_protocol does it: rps_view_size random peers
      // drawn from the node's bootstrap stream (repeats allowed).
      std::vector<net::Descriptor> seed;
      const auto k = static_cast<std::size_t>(params.rps_view_size);
      seed.reserve(k);
      for (std::size_t picked = 0; picked < k && n > 1; ++picked) {
        NodeId peer = v;
        while (peer == v) peer = static_cast<NodeId>(boot_rng.index(n));
        seed.push_back(net::Descriptor{peer, -1, nullptr});
      }
      agent->bootstrap_rps(std::move(seed));
      return agent;
    });
    timing.bootstrap_s = seconds_since(start);
  }
  if (scenario_exec.has_value()) scenario_exec->register_adversaries();

  metrics::Tracker tracker(n, workload.num_items());
  tracker.attach(engine);

  std::map<Cycle, std::vector<ItemIdx>> calendar;
  for (const data::NewsSpec& spec : workload.news) {
    if (spec.publish_at != kNoCycle) {
      calendar[spec.publish_at].push_back(spec.index);
      tracker.set_publish_cycle(spec.index, spec.publish_at);
    }
  }
  timing.setup_s = seconds_since(setup_start);
  stage_span.reset();
  if (options.setup_only) return out;

  // ---- Cycle loop ----
  const Cycle total = config.total_cycles();
  const Cycle publication_start = config.warmup_cycles;
  const Cycle drain_start = config.warmup_cycles + config.publish_cycles;
  timing.cycle_s.reserve(static_cast<std::size_t>(total));
  timing.run_cycle_s.reserve(static_cast<std::size_t>(total));
  for (Cycle c = 0; c < total; ++c) {
    if (c == 0) stage_span.emplace("bench.warmup");
    if (c == publication_start) {
      stage_span.reset();
      stage_span.emplace("bench.publication");
    }
    if (c == drain_start) {
      stage_span.reset();
      stage_span.emplace("bench.drain");
    }
    double cycle = 0.0;
    {
      WUP_TRACE_SCOPE("bench.cycle");
      const Clock::time_point cycle_start = Clock::now();
      if (scenario_exec.has_value()) scenario_exec->begin_cycle(c);
      const Clock::time_point publish_start = Clock::now();
      timing.begin_cycle_s +=
          std::chrono::duration<double>(publish_start - cycle_start).count();
      if (const auto it = calendar.find(c); it != calendar.end()) {
        for (ItemIdx item : it->second) {
          engine.publish(workload.news[item].source, item, workload.news[item].id);
        }
      }
      const Clock::time_point run_start = Clock::now();
      timing.publish_s += std::chrono::duration<double>(run_start - publish_start).count();
      engine.run_cycle();
      const Clock::time_point cycle_end = Clock::now();
      timing.run_cycle_s.push_back(
          std::chrono::duration<double>(cycle_end - run_start).count());
      cycle = std::chrono::duration<double>(cycle_end - cycle_start).count();
    }
    timing.cycle_s.push_back(cycle);
    timing.loop_s += cycle;
    (c < publication_start ? timing.warmup_s
                           : c < drain_start ? timing.publication_s : timing.drain_s) +=
        cycle;
    if (config.collect_cycle_digests) result.cycle_digests.push_back(tracker.digest());
  }
  stage_span.reset();

  // ---- Collection ----
  // Repeated back to back on the final state.
  std::vector<double> scores_s;
  std::vector<double> overlay_s;
  std::vector<std::uint64_t> cycle_digests = std::move(result.cycle_digests);
  for (int k = 0; k < std::max(1, options.collect_repeats); ++k) {
    WUP_TRACE_SCOPE("bench.collect");
    result = analysis::RunResult{};
    const Clock::time_point start = Clock::now();
    collect(engine, tracker, workload, config, result, scores_s.emplace_back(),
            overlay_s.emplace_back());
    timing.collect_s.push_back(seconds_since(start));
  }
  result.cycle_digests = std::move(cycle_digests);
  timing.scores_s = median(scores_s);
  timing.overlay_s = median(overlay_s);
  run_span.reset();

  if (options.inspect) options.inspect(engine, tracker);
  return out;
}

}  // namespace wupbench
