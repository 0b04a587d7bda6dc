// Benchmark driver: runs one workload from a workload seed, checks the
// outputs, and prints one JSON result line as the last line of stdout.
//
//   wupbench_driver --workload hostile-2k-t2 --seed 7 --seconds 50 --trace 0
//       [--trace-out FILE]
//
// --trace 0: end-to-end metrics. Full runs repeat at least the workload's
// min_runs times, and more while the next is expected to end within
// --seconds. Set-up is also repeated, 101 / min_runs times before each run. A
// last run at the workload's check thread count must reproduce the
// trajectory fingerprint.
//
// --trace 1: one plain run, then one traced run with the obs stats
// registry and span tracing on, which yields the per-layer metrics. Its
// fingerprint must equal the plain run's. The spans (the benchmark's own
// and the library's WUP_TRACE_SCOPE ones) go to --trace-out as Chrome
// trace-event JSON.
//
// Progress and failures go to stderr.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "check.hpp"
#include "common/flags.hpp"
#include "composed.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "profile/compact.hpp"
#include "profile/similarity.hpp"
#include "whatsup/node.hpp"
#include "workloads.hpp"

namespace {

using namespace whatsup;
using namespace wupbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// VmHWM from /proc/self/status in KiB; 0 when unavailable.
std::size_t peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

// Returns freed heap to the kernel, then resets the peak-RSS high-water
// mark to the current resident set, so the next VmHWM read covers one run.
void reset_peak_rss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Reading {
  std::string name;
  double value;
  std::string unit;
};

// Failure accounting over every full run of the invocation.
struct Ledger {
  int attempted = 0;
  int failed = 0;

  // Counts one run; `reason` set means it failed its output check.
  void run(const std::optional<std::string>& reason, const char* what) {
    ++attempted;
    if (!reason) return;
    ++failed;
    std::cerr << "[wupbench] FAILED (" << what << "): " << *reason << '\n';
  }
};

// The plain runs of one invocation. The runs of one seed do identical
// work cycle by cycle, and on shared cores interference only adds time
// (it comes and goes within a second), so each cycle and each collection
// is timed as its best observation over the runs.
struct PlainRuns {
  std::vector<double> setup_s;       // every set-up sample
  std::vector<double> wall_s;        // per run, as a paper driver sees it
  std::vector<double> best_cycle_s;  // per cycle: begin_cycle + publish + run_cycle
  std::vector<double> best_run_cycle_s;  // per cycle: run_cycle alone
  double best_collect_s = 0.0;
  std::vector<double> peak_bytes_per_node;
  metrics::Scores scores;
  double msgs_per_user = 0.0;
  std::uint64_t fingerprint = 0;

  double loop_s() const {
    double sum = 0.0;
    for (const double s : best_cycle_s) sum += s;
    return sum;
  }
};

// Collections per run.
constexpr int kCollectRepeats = 9;
// Fewest set-up-only repetitions per invocation, for setup_s.
constexpr int kSetups = 101;

void keep_min(std::vector<double>& best, const std::vector<double>& sample) {
  if (best.empty()) {
    best = sample;
    return;
  }
  for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], sample[i]);
}

// The set-up samples and the timed full runs: at least `min_runs`, and
// more while the next is expected to end within `seconds`. With three, a
// cycle's best time misses the uncontended state only when all three runs
// were slowed there. The set-up samples are spread over the invocation:
// kSetups / min_runs of them before every run.
PlainRuns plain_runs(const WorkloadSpec& spec, const data::Workload& input,
                     const analysis::RunConfig& config, int min_runs, double seconds,
                     Ledger& ledger) {
  PlainRuns out;
  ComposedOptions setup_only;
  setup_only.setup_only = true;
  ComposedOptions options;
  options.collect_repeats = kCollectRepeats;
  const double n = static_cast<double>(input.num_users());
  const Clock::time_point start = Clock::now();
  int runs = 0;
  while (runs < min_runs ||
         seconds_since(start) * (1.0 + 1.0 / static_cast<double>(runs)) <= seconds) {
    for (int k = runs * kSetups / min_runs; k < (runs + 1) * kSetups / min_runs; ++k) {
      out.setup_s.push_back(run_composed(input, config, setup_only).timing.setup_s);
    }
    reset_peak_rss();
    const ComposedRun run = run_composed(input, config, options);
    ++runs;
    const RunTiming& t = run.timing;
    out.setup_s.push_back(t.setup_s);
    out.wall_s.push_back(t.wall_s());
    keep_min(out.best_cycle_s, t.cycle_s);
    keep_min(out.best_run_cycle_s, t.run_cycle_s);
    const double collect = *std::min_element(t.collect_s.begin(), t.collect_s.end());
    out.best_collect_s = runs == 1 ? collect : std::min(out.best_collect_s, collect);
    out.peak_bytes_per_node.push_back(static_cast<double>(peak_rss_kib()) * 1024.0 / n);

    const std::uint64_t fp = fingerprint(run.result.cycle_digests);
    std::optional<std::string> reason = check_scores(spec, run.result.scores);
    if (runs == 1) {
      out.scores = run.result.scores;
      out.msgs_per_user = run.result.msgs_per_user;
      out.fingerprint = fp;
    } else if (!reason) {
      reason = check_fingerprint(fp, out.fingerprint, "the first run of this seed");
    }
    ledger.run(reason, "plain run");
    std::cerr << "[wupbench] run " << runs << ": wall " << t.wall_s() << " s, "
              << static_cast<double>(t.cycle_s.size()) / t.loop_s << " cycles/s, f1 "
              << run.result.scores.f1 << ", recall " << run.result.scores.recall << '\n';
  }
  std::cerr << "[wupbench] setup: " << out.setup_s.size() << " samples, median "
            << median(out.setup_s) * 1e3 << " ms; best-of-" << runs
            << " loop " << out.loop_s() << " s\n";
  return out;
}

// Per-layer metrics of one traced run (--trace 1).
std::vector<Reading> traced_run(const WorkloadSpec& spec, const data::Workload& input,
                               const analysis::RunConfig& config,
                               const PlainRuns& plain, double generate_s,
                               const std::string& trace_out, Ledger& ledger) {
  obs::Snapshot snap;
  std::uint64_t rps_msgs = 0;
  std::uint64_t wup_msgs = 0;
  std::size_t probe_pairs = 0;
  double probe_ns = 0.0;
  ComposedOptions options;
  options.collect_repeats = kCollectRepeats;
  options.inspect = [&](sim::Engine& engine, const metrics::Tracker& tracker) {
    snap = obs::Snapshot::collect();
    snap.absorb(engine);
    snap.absorb(tracker);
    snap.absorb_arena();
    rps_msgs = engine.traffic().messages(net::Protocol::kRps);
    wup_msgs = engine.traffic().messages(net::Protocol::kWup);

    // Kernel probe: similarity() over every (user profile, WUP-view member
    // profile) pair the run ended with. Snapshots are decoded once up front
    // so only the kernel is timed.
    std::vector<const Profile*> subjects;
    std::vector<Profile> candidates;
    whatsup::Metric metric = whatsup::Metric::kWup;
    for (NodeId v = 0; v < engine.num_nodes(); ++v) {
      const auto* agent = dynamic_cast<const WhatsUpAgent*>(&engine.agent(v));
      if (agent == nullptr) continue;
      metric = agent->config().metric;
      for (const net::Descriptor& d : agent->wup_view().entries()) {
        if (!d.has_profile()) continue;
        subjects.push_back(&agent->user_profile());
        candidates.push_back(d.profile_ref());
      }
    }
    probe_pairs = candidates.size();
    if (probe_pairs == 0) return;
    double sink = 0.0;
    for (std::size_t i = 0; i < probe_pairs; ++i) {  // warm lazy norms
      sink += similarity(metric, *subjects[i], candidates[i]);
    }
    std::size_t passes = 0;
    const Clock::time_point start = Clock::now();
    do {
      for (std::size_t i = 0; i < probe_pairs; ++i) {
        sink += similarity(metric, *subjects[i], candidates[i]);
      }
      ++passes;
    } while (seconds_since(start) < 0.25);
    probe_ns = seconds_since(start) * 1e9 / static_cast<double>(passes * probe_pairs);
    if (sink < 0.0) std::cerr << sink;  // keeps the kernel calls observable
  };

  const SnapshotArena::Stats arena_before = SnapshotArena::instance().stats();
  obs::Registry::instance().reset();
  obs::set_enabled(true);
  obs::trace_start(std::size_t{1} << 18);
  const ComposedRun run = run_composed(input, config, options);
  obs::trace_stop();
  obs::set_enabled(false);
  const SnapshotArena::Stats arena_after = SnapshotArena::instance().stats();

  std::optional<std::string> reason = check_scores(spec, run.result.scores);
  if (!reason) {
    reason = check_fingerprint(fingerprint(run.result.cycle_digests), plain.fingerprint,
                               "the untraced run");
  }
  if (!reason) reason = check_overflow(snap.value("engine.deliver.overflow_dropped"));
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    obs::trace_write_json(out);
    if (!out && !reason) reason = "cannot write " + trace_out;
  }
  ledger.run(reason, "traced run");

  const auto hist_s = [&snap](const char* name) {
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? static_cast<double>(m->sum) * 1e-9 : 0.0;
  };
  const auto count = [&snap](const char* name) {
    return static_cast<double>(snap.value(name));
  };
  const RunTiming& t = run.timing;
  const analysis::RunResult& r = run.result;
  const double threads = static_cast<double>(config.threads);
  const double deliver = hist_s("engine.phase.deliver_ns");
  const double activate = hist_s("engine.phase.activate_ns");
  const double deliver_busy = hist_s("engine.shard.deliver_ns");
  const double activate_busy = hist_s("engine.shard.activate_ns");
  const double scratch_hits = count("profile.scratch.hits");
  const double scratch_lookups = scratch_hits + count("profile.scratch.misses");
  const auto intern_hits = static_cast<double>(arena_after.reused - arena_before.reused);
  const auto interned = static_cast<double>(arena_after.interned - arena_before.interned);
  return {
      {"dataset.generate_s", generate_s, "s"},
      {"sim.bootstrap_s", t.bootstrap_s, "s"},
      {"sim.publish_s", t.publish_s, "s"},
      {"sim.deliver_s", deliver, "s"},
      {"sim.activate_s", activate, "s"},
      {"sim.commit_s", hist_s("engine.barrier.commit_ns"), "s"},
      {"sim.deliver_busy_s", deliver_busy, "s"},
      {"sim.deliver_idle_s", std::max(0.0, threads * deliver - deliver_busy), "s"},
      {"sim.cpu_util", ratio(deliver_busy + activate_busy, threads * (deliver + activate)),
       "ratio"},
      {"sim.msgs_routed", count("engine.route.messages"), "count"},
      {"sim.msgs_delivered", count("engine.deliver.messages"), "count"},
      {"sim.overflow_dropped", count("engine.deliver.overflow_dropped"), "count"},
      {"sim.mailbox_peak", count("engine.mailbox.bucket_peak"), "count"},
      {"sim.pool_reuse_ratio",
       ratio(count("engine.pool.reused"),
             count("engine.pool.reused") + count("engine.pool.fresh")),
       "ratio"},
      {"sim.mem_bytes", count("engine.mem.total_bytes"), "B"},
      {"analysis.warmup_s", t.warmup_s, "s"},
      {"analysis.publish_s", t.publication_s, "s"},
      {"analysis.drain_s", t.drain_s, "s"},
      {"gossip.rps_msgs", static_cast<double>(rps_msgs), "count"},
      {"gossip.wup_msgs", static_cast<double>(wup_msgs), "count"},
      {"gossip.kbps", r.kbps_gossip, "kbps"},
      {"beep.news_msgs", static_cast<double>(r.news_messages), "count"},
      {"beep.deliveries", static_cast<double>(r.reliability.deliveries), "count"},
      {"beep.duplicates", static_cast<double>(r.reliability.duplicates), "count"},
      {"beep.redundancy_ratio", r.reliability.redundancy_ratio, "ratio"},
      {"beep.latency_cycles", r.reliability.mean_latency, "cycles"},
      {"profile.scratch_hit_ratio", ratio(scratch_hits, scratch_lookups), "ratio"},
      {"profile.scratch_lookups", scratch_lookups, "count"},
      {"profile.arena_intern_hit_ratio", ratio(intern_hits, intern_hits + interned),
       "ratio"},
      {"profile.arena_bytes",
       count("arena.blob_resident_bytes") + count("arena.stamp_resident_bytes"), "B"},
      {"profile.similarity_ns", probe_ns, "ns"},
      {"profile.similarity_pairs", static_cast<double>(probe_pairs), "count"},
      {"relia.tracked", count("relia.tracked"), "count"},
      {"relia.retransmits", count("relia.retransmits"), "count"},
      {"relia.ack_ratio", ratio(count("relia.acked"), count("relia.tracked")), "ratio"},
      {"relia.expired", count("relia.expired"), "count"},
      {"relia.ack_msgs", static_cast<double>(r.reliability.ack_messages), "count"},
      {"relia.evictions", count("relia.evictions"), "count"},
      {"scenario.begin_cycle_s", t.begin_cycle_s, "s"},
      {"metrics.collect_s", t.scores_s, "s"},
      {"metrics.tracker_bytes", count("tracker.resident_bytes"), "B"},
      {"graph.overlay_s", t.overlay_s, "s"},
      {"obs.overhead_ratio", t.wall_s() / median(plain.wall_s), "ratio"},
  };
}

void print_result(const Ledger& ledger, const std::vector<Reading>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              ledger.failed == 0 ? "true" : "false", ledger.attempted, ledger.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "", "workload name");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1, "workload seed"));
  const double seconds =
      flags.get_double("seconds", 10.0, "time spent in full runs (--trace 0)");
  const bool traced = flags.get_int("trace", 0, "1 = traced run, per-layer metrics") != 0;
  const std::string trace_out =
      flags.get_string("trace-out", "", "Chrome trace-event JSON of the traced run");
  if (flags.maybe_print_help(std::cout)) return 0;
  if (const auto unknown = flags.unknown_flags(); !unknown.empty()) {
    std::cerr << "error: unknown flag --" << unknown.front() << '\n';
    return 2;
  }
  const WorkloadSpec* spec = find_workload(name);
  if (spec == nullptr) {
    std::cerr << "error: unknown workload '" << name << "'; known:";
    for (const WorkloadSpec& w : workloads()) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
  }

  const Clock::time_point generate_start = Clock::now();
  const data::Workload input = make_population(*spec);
  const double generate_s = seconds_since(generate_start);
  analysis::RunConfig config = make_config(*spec, seed, input.num_users());
  config.collect_cycle_digests = true;  // for the fingerprint checks
  std::cerr << "[wupbench] " << spec->name << " seed " << seed << ": "
            << input.num_users() << " users, " << input.num_items() << " items, "
            << config.total_cycles() << " cycles, " << config.threads << " thread(s)\n";

  Ledger ledger;
  // The traced run needs one plain run to compare against, not a timing.
  const PlainRuns plain = traced ? plain_runs(*spec, input, config, 1, 0.0, ledger)
                                 : plain_runs(*spec, input, config, spec->min_runs,
                                              seconds, ledger);

  std::vector<Reading> metrics;
  if (traced) {
    metrics = traced_run(*spec, input, config, plain, generate_s, trace_out, ledger);
  } else {
    metrics = {
        {"cycles_per_s", static_cast<double>(plain.best_cycle_s.size()) / plain.loop_s(),
         "cycles/s"},
        {"wall_s", median(plain.setup_s) + plain.loop_s() + plain.best_collect_s, "s"},
        {"setup_s", median(plain.setup_s), "s"},
        {"collect_s", plain.best_collect_s, "s"},
        {"cycle_ms_p50", quantile(plain.best_run_cycle_s, 0.5) * 1e3, "ms"},
        {"cycle_ms_p90", quantile(plain.best_run_cycle_s, 0.9) * 1e3, "ms"},
        {"peak_bytes_per_node", median(plain.peak_bytes_per_node), "B"},
        {"f1", plain.scores.f1, "ratio"},
        {"msgs_per_user", plain.msgs_per_user, "msgs"},
    };
  }

  // The determinism contract: the same inputs at another thread count
  // reproduce the trajectory.
  analysis::RunConfig check_config = config;
  check_config.threads = spec->check_threads;
  ComposedOptions options;
  const ComposedRun check = run_composed(input, check_config, options);
  std::optional<std::string> reason = check_scores(*spec, check.result.scores);
  if (!reason) {
    reason = check_fingerprint(
        plain.fingerprint, fingerprint(check.result.cycle_digests),
        "the " + std::to_string(spec->check_threads) + "-thread run");
  }
  ledger.run(reason, "thread-count cross-check");

  print_result(ledger, metrics);
  return 0;
}
