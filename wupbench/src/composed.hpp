// The benchmark's composed driver: the same public calls, in the same
// order, that analysis::run_protocol makes for a WhatsUp run, each timed
// from outside with std::chrono::steady_clock.
//
//   data::Workload::schedule_publications -> sim::Engine + Engine::bootstrap
//   -> metrics::Tracker::attach -> per cycle: Executor::begin_cycle +
//   Engine::publish + Engine::run_cycle -> Tracker::reached_sets ->
//   metrics::compute_scores / per_user_scores / windowed_scores -> the
//   overlay graph::StaticGraph and its SCC / clustering / components.
//
// The result fields are filled exactly as run_protocol fills them
// (tests/test_wupbench.cpp pins digests, scores and message totals
// bit-for-bit), so the benchmark measures the program every paper driver
// runs. With RunConfig::collect_cycle_digests the per-cycle tracker digest
// is taken after run_cycle returns, outside every timed interval.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/runner.hpp"
#include "metrics/tracker.hpp"
#include "sim/engine.hpp"

namespace wupbench {

using whatsup::Cycle;

// Wall-clock breakdown of one composed run, in seconds.
struct RunTiming {
  // Setup: calendar draw, engine construction, bootstrap, tracker sizing
  // and the publication calendar. Input generation is not part of it.
  double setup_s = 0.0;
  double bootstrap_s = 0.0;  // Engine::bootstrap alone

  // Cycle loop. One entry per cycle: begin_cycle + publish + run_cycle.
  std::vector<double> cycle_s;
  std::vector<double> run_cycle_s;  // Engine::run_cycle alone, per cycle
  double begin_cycle_s = 0.0;       // summed Executor::begin_cycle slots
  double publish_s = 0.0;           // summed Engine::publish calls
  double warmup_s = 0.0;            // loop stages (sums of cycle_s)
  double publication_s = 0.0;
  double drain_s = 0.0;
  double loop_s = 0.0;

  // Collection: everything after the last run_cycle, one entry per
  // ComposedOptions::collect_repeats collection. Its two timed parts are
  // medians over the repeats.
  std::vector<double> collect_s;
  double scores_s = 0.0;   // reached_sets + the score reductions
  double overlay_s = 0.0;  // StaticGraph build + SCC/clustering/components

  // The run as a paper driver sees it: setup, loop, first collection.
  double wall_s() const {
    return setup_s + loop_s + (collect_s.empty() ? 0.0 : collect_s.front());
  }
};

struct ComposedOptions {
  // Stop after setup (the set-up time samples); the result is empty.
  bool setup_only = false;
  // Collections run back to back on the final state. Collection only
  // reads the engine and tracker, so every repeat yields the same result.
  int collect_repeats = 1;
  // Called once after collection, outside every timed interval, while the
  // engine and tracker are still alive.
  std::function<void(whatsup::sim::Engine&, const whatsup::metrics::Tracker&)>
      inspect;
};

struct ComposedRun {
  whatsup::analysis::RunResult result;
  RunTiming timing;
};

// Runs one WhatsUp experiment through the public entry points. Only the
// single-process WhatsUp path is composed: other approaches, fragment
// transports and RunConfig::observability throw std::invalid_argument.
ComposedRun run_composed(const whatsup::data::Workload& workload,
                         const whatsup::analysis::RunConfig& config,
                         const ComposedOptions& options = {});

// FNV-1a over the per-cycle digests, byte by byte, as bench/scenario_sim
// prints it.
std::uint64_t fingerprint(const std::vector<std::uint64_t>& cycle_digests);

}  // namespace wupbench
