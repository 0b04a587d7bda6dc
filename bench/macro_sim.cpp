// Macro benchmark: a full WhatsUp deployment (RPS + WUP clustering + BEEP
// dissemination + metrics tracking) at simulator scale, reporting
// simulated gossip cycles per second. This is the number the ROADMAP's
// "as fast as the hardware allows" target tracks PR over PR; the micro
// kernels live in micro_primitives.cpp.
//
//   items_per_second == simulated cycles / second
//
// Scales: 500 nodes × 200 cycles (the BENCH_micro.json baseline) at
// worker-thread counts 1/4/8, a smaller CI-smoke configuration, and a
// 10k-node configuration exercising the sharded scheduler. Fixed-seed
// results are bit-identical across thread counts (the determinism suite
// asserts this); only the wall clock changes.
//
// Every row also reports memory counters read from /proc/self/status:
//   peak_rss_mb          VmHWM — peak resident set during THIS row (MiB)
//   peak_bytes_per_node  peak_rss_mb / nodes
//   mem_isolated         1 when the row's peak was isolated from earlier
//                        rows, 0 when it may carry an older high-water mark
// VmHWM is a process-lifetime high-water mark, so a sweep would otherwise
// attribute the largest earlier row to every later one (small fault-sweep
// rows used to inherit the 10k-node peak). Each row therefore resets the
// kernel's high-water mark first (writing "5" to /proc/self/clear_refs);
// where that interface is unavailable, the row re-runs once in a forked
// child and reports the child's own VmHWM.
//
// Flags (parsed before Google Benchmark's own):
//   --nodes=N     additionally register BM_WhatsUpSim_Custom at N nodes
//   --threads=N   thread count for the custom row (default: hardware
//                 concurrency)
//   --items=N     item count for the custom row (default: nodes/20, so
//                 large-node rows do not degenerate into an allocator
//                 benchmark — see BM_WhatsUpSim_10000n_50c)
//   --cycles=N    publication cycles for the custom row (default: 50)
//   --warmup=N    warmup cycles for the custom row (default: 5)
//   --drain=N     drain cycles for the custom row (default: 15) — the
//                 million-node CI smoke row shrinks warmup/drain so the
//                 run fits the job budget on one core
//   --spread=K    stagger each cycle's publication burst over the next K
//                 cycles (RunConfig::publish_spread) — de-synchronizes the
//                 storm that otherwise sets the peak-RSS envelope
//   --scenario=F  .scn event timeline applied to the custom row (implies
//                 the custom row at 500 nodes when --nodes is not given);
//                 see src/scenario/ and scenarios/
//   --partitions=P  run the custom row distributed: fork P lockstep worker
//                 processes over a socketpair mesh (bench/
//                 partition_launcher.hpp), each owning one node fragment.
//                 Reports simulated cycles/s of the whole partitioned run;
//                 memory counters then cover only fragment 0's process.
//   --progress=N  heartbeat to stderr every N cycles (cycles/s, ETA, RSS)
//   --stats-json=F  enable the obs stats registry for every row and write
//                 the last-run per-cycle series + final snapshot to F
//                 (in-process rows only; see src/obs/snapshot.hpp)
//   --stats-every=N sampling period of the series (default 1 cycle)
//   --trace=F     capture WUP_TRACE_SCOPE spans for the whole benchmark
//                 run and write Chrome trace-event JSON to F
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "analysis/runner.hpp"
#include "dataset/survey.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "partition_launcher.hpp"
#include "scenario/scenario.hpp"

namespace whatsup {
namespace {

// Reads an integer field (kiB) from /proc/self/status; 0 when the key or
// the file is unavailable (non-Linux).
std::size_t proc_status_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t value = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::strtoull(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

// Resets the kernel's peak-RSS high-water mark to the CURRENT resident set
// (echo 5 > /proc/self/clear_refs), so the next VmHWM read reflects this
// row, not whichever earlier row in the sweep was largest.
bool reset_peak_rss() {
  // Return freed-but-retained allocator pages to the kernel first: the
  // reset pins the high-water mark to the CURRENT resident set, and an
  // earlier row's drained heap would otherwise become this row's floor.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// Fallback isolation when clear_refs is unavailable: run `body` once in a
// forked child and return the child's own VmHWM (KiB); 0 on failure.
std::size_t forked_peak_kib(const std::function<void()>& body) {
#ifdef __unix__
  int fds[2];
  if (pipe(fds) != 0) return 0;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0;
  }
  if (pid == 0) {
    close(fds[0]);
    body();
    const std::size_t kib = proc_status_kib("VmHWM");
    (void)!write(fds[1], &kib, sizeof(kib));
    _exit(0);
  }
  close(fds[1]);
  std::size_t kib = 0;
  if (read(fds[0], &kib, sizeof(kib)) != static_cast<ssize_t>(sizeof(kib))) kib = 0;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return kib;
#else
  (void)body;
  return 0;
#endif
}

Cycle g_progress = 0;            // --progress=N heartbeat period (0 = off)
std::string g_stats_json;        // --stats-json=F (empty = stats off)
Cycle g_stats_every = 1;         // --stats-every=N series sampling period
std::string g_trace;             // --trace=F (empty = tracing off)

data::Workload macro_workload(std::size_t users, std::size_t items) {
  Rng rng(11);
  data::SurveyConfig config;
  config.base_users = users / 2;
  config.base_items = items / 2;
  config.replication = 2;
  return data::make_survey(config, rng);
}

void run_macro(benchmark::State& state, std::size_t users, std::size_t items,
               Cycle publish_cycles, unsigned threads,
               const scenario::Timeline* timeline = nullptr,
               const net::NetworkConfig* network = nullptr,
               bool reliability = false, Cycle warmup_cycles = 5,
               Cycle drain_cycles = 15, std::size_t partitions = 1,
               Cycle publish_spread = 0) {
  const data::Workload workload = macro_workload(users, items);
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 8;
  config.seed = 3;
  config.warmup_cycles = warmup_cycles;
  config.publish_cycles = publish_cycles;
  config.drain_cycles = drain_cycles;
  config.measure_margin = 13;
  config.publish_spread = publish_spread;
  config.threads = threads;
  if (timeline != nullptr) {
    config.scenario = *timeline;
    config.fit_scenario_horizon();
  }
  if (network != nullptr) config.network = *network;
  if (reliability) {
    config.reliability.enabled = true;
    config.view_hygiene.max_age = 20;
    config.view_hygiene.suspicion_limit = 2;
  }
  config.observability.progress_every = g_progress;
  if (!g_stats_json.empty()) {
    config.observability.enable_stats = true;
    config.observability.stats_every = g_stats_every;
  }
  const auto total = static_cast<std::size_t>(config.total_cycles());
  // Isolate this row's memory counters from whatever ran before it.
  const bool reset_ok = reset_peak_rss();
  if (partitions > 1) {
    // Distributed row: each iteration forks partitions-1 workers over a
    // socketpair mesh and runs one node fragment per process (the bench
    // process doubles as fragment 0). fork() is safe here: run_protocol's
    // thread pool is joined before each iteration returns, so no threads
    // are live at fork time. Memory counters below cover only fragment 0.
    config.collect_cycle_digests = true;  // workers ship digest series back
    for (auto _ : state) {
      const std::vector<std::uint64_t> digests = bench::run_partitioned(
          partitions, [&](sim::SocketTransport& transport) {
            analysis::RunConfig worker_config = config;
            worker_config.partitions = static_cast<int>(partitions);
            worker_config.transport = &transport;
            return analysis::run_protocol(workload, worker_config).cycle_digests;
          });
      benchmark::DoNotOptimize(digests.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * total));
    state.counters["nodes"] = static_cast<double>(workload.num_users());
    state.counters["cycles"] = static_cast<double>(total);
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["partitions"] = static_cast<double>(partitions);
    state.counters["mem_isolated"] = reset_ok ? 1.0 : 0.0;
    const double peak_kib = static_cast<double>(proc_status_kib("VmHWM"));
    state.counters["peak_rss_mb"] = peak_kib / 1024.0;
    state.counters["peak_bytes_per_node"] =
        peak_kib * 1024.0 / static_cast<double>(workload.num_users());
    return;
  }
  for (auto _ : state) {
    // Fresh counters per run so the emitted series/final snapshot describe
    // exactly one trajectory (cheap: memset over a few fixed-size lanes).
    if (config.observability.enabled()) obs::Registry::instance().reset();
    const analysis::RunResult result = analysis::run_protocol(workload, config);
    benchmark::DoNotOptimize(result.scores.f1);
    if (!g_stats_json.empty()) {
      // Overwritten per run: with several rows the file reflects the last
      // row executed (use --benchmark_filter to pick one).
      std::ofstream out(g_stats_json);
      obs::write_stats_json(out, result.stats_series, result.stats);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * total));
  state.counters["nodes"] = static_cast<double>(workload.num_users());
  state.counters["cycles"] = static_cast<double>(total);
  state.counters["threads"] = static_cast<double>(threads);
  double peak_kib = static_cast<double>(proc_status_kib("VmHWM"));
  bool isolated = reset_ok;
  if (!reset_ok) {
    // clear_refs unavailable: re-run once in a forked child and report the
    // child's own high-water mark.
    const std::size_t child_kib = forked_peak_kib([&] {
      const analysis::RunResult result = analysis::run_protocol(workload, config);
      benchmark::DoNotOptimize(result.scores.f1);
    });
    if (child_kib != 0) {
      peak_kib = static_cast<double>(child_kib);
      isolated = true;
    }
  }
  state.counters["mem_isolated"] = isolated ? 1.0 : 0.0;
  state.counters["peak_rss_mb"] = peak_kib / 1024.0;
  state.counters["peak_bytes_per_node"] =
      peak_kib * 1024.0 / static_cast<double>(workload.num_users());
}

void BM_WhatsUpSim_250n_100c(benchmark::State& state) {
  run_macro(state, 250, 250, 80, /*threads=*/1);
}

// The BENCH_micro.json baseline configuration: >= 500 nodes, >= 200
// cycles; state.range(0) = worker threads.
void BM_WhatsUpSim_500n_200c(benchmark::State& state) {
  run_macro(state, 500, 500, 180, static_cast<unsigned>(state.range(0)));
}

void BM_WhatsUpSim_1000n_200c(benchmark::State& state) {
  run_macro(state, 1000, 1000, 180, static_cast<unsigned>(state.range(0)));
}

// Fault-sweep rows: the baseline scale re-run under the fault-testbed
// presets with the ack/retransmit reliability layer and view hygiene
// enabled — what the fault model plus per-copy acks, retransmission
// queues and view hygiene cost in simulated cycles/s. state.range(0) =
// worker threads; the profile is baked into the row name.
void BM_WhatsUpSim_500n_200c_ModelNetFaults(benchmark::State& state) {
  const net::NetworkConfig network = net::NetworkConfig::modelnet_faults();
  run_macro(state, 500, 500, 180, static_cast<unsigned>(state.range(0)),
            /*timeline=*/nullptr, &network, /*reliability=*/true);
}

void BM_WhatsUpSim_500n_200c_PlanetLabFaults(benchmark::State& state) {
  const net::NetworkConfig network = net::NetworkConfig::planetlab_faults();
  run_macro(state, 500, 500, 180, static_cast<unsigned>(state.range(0)),
            /*timeline=*/nullptr, &network, /*reliability=*/true);
}

// Sharded-scheduler scaling row: 10k nodes (~160 shards). The item count
// is capped (not users/2): at 10k nodes a Table-I-ratio publication storm
// keeps millions of fat news payloads in flight per cycle, which
// benchmarks the allocator, not the scheduler.
void BM_WhatsUpSim_10000n_50c(benchmark::State& state) {
  run_macro(state, 10000, 500, 30, static_cast<unsigned>(state.range(0)));
}

// Storm-spread variant of the sharded row: the same calendar staggered
// over 8 cycles per burst. Tracks what de-synchronizing the publication
// storm buys in peak RSS (the gate watches peak_bytes_per_node; scores
// differ from the dense row — it is a different schedule — but stay
// deterministic for the fixed seed).
void BM_WhatsUpSim_10000n_50c_Spread8(benchmark::State& state) {
  run_macro(state, 10000, 500, 30, static_cast<unsigned>(state.range(0)),
            /*timeline=*/nullptr, /*network=*/nullptr, /*reliability=*/false,
            /*warmup_cycles=*/5, /*drain_cycles=*/15, /*partitions=*/1,
            /*publish_spread=*/8);
}

unsigned g_custom_threads = 0;  // 0 = hardware concurrency
std::size_t g_custom_nodes = 0;
std::size_t g_custom_items = 0;  // 0 = nodes/20 (capped-item default)
Cycle g_custom_cycles = 0;       // 0 = 50 publication cycles
Cycle g_custom_warmup = -1;      // <0 = default 5
Cycle g_custom_drain = -1;       // <0 = default 15
Cycle g_custom_spread = 0;       // publication-storm spreading window
std::size_t g_custom_partitions = 1;  // worker processes; 1 = in-process
std::string g_custom_scenario;   // .scn path; empty = plain run

void BM_WhatsUpSim_Custom(benchmark::State& state) {
  const unsigned threads = g_custom_threads != 0
                               ? g_custom_threads
                               : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t items = g_custom_items != 0
                                ? g_custom_items
                                : std::max<std::size_t>(g_custom_nodes / 20, 50);
  const Cycle publish = g_custom_cycles != 0 ? g_custom_cycles : 50;
  const Cycle warmup = g_custom_warmup >= 0 ? g_custom_warmup : 5;
  const Cycle drain = g_custom_drain >= 0 ? g_custom_drain : 15;
  if (!g_custom_scenario.empty()) {
    const scenario::Timeline timeline = scenario::parse_file(g_custom_scenario);
    run_macro(state, g_custom_nodes, items, publish, threads, &timeline,
              nullptr, false, warmup, drain, g_custom_partitions,
              g_custom_spread);
    return;
  }
  run_macro(state, g_custom_nodes, items, publish, threads, nullptr, nullptr,
            false, warmup, drain, g_custom_partitions, g_custom_spread);
}

// Consumes --nodes=/--threads=/--items=/--cycles= (also "--flag value"
// form) and compacts argv so Google Benchmark never sees them.
void parse_local_flags(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const auto match = [&](const char* name, std::string& value) {
      const std::string prefix = std::string("--") + name;
      if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) != 0) return false;
      const char* rest = argv[i] + prefix.size();
      if (*rest == '=') {
        value = rest + 1;
        return true;
      }
      if (*rest == '\0' && i + 1 < argc) {
        value = argv[++i];
        return true;
      }
      return false;
    };
    std::string value;
    if (match("nodes", value)) {
      g_custom_nodes = static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (match("threads", value)) {
      g_custom_threads = static_cast<unsigned>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (match("items", value)) {
      g_custom_items = static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (match("cycles", value)) {
      g_custom_cycles = static_cast<Cycle>(std::strtol(value.c_str(), nullptr, 10));
    } else if (match("warmup", value)) {
      g_custom_warmup = static_cast<Cycle>(std::strtol(value.c_str(), nullptr, 10));
    } else if (match("drain", value)) {
      g_custom_drain = static_cast<Cycle>(std::strtol(value.c_str(), nullptr, 10));
    } else if (match("spread", value)) {
      g_custom_spread = static_cast<Cycle>(std::strtol(value.c_str(), nullptr, 10));
    } else if (match("partitions", value)) {
      g_custom_partitions = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10)));
    } else if (match("scenario", value)) {
      g_custom_scenario = value;
    } else if (match("progress", value)) {
      g_progress = static_cast<Cycle>(std::strtol(value.c_str(), nullptr, 10));
    } else if (match("stats-json", value)) {
      g_stats_json = value;
    } else if (match("stats-every", value)) {
      g_stats_every = std::max<Cycle>(
          1, static_cast<Cycle>(std::strtol(value.c_str(), nullptr, 10)));
    } else if (match("trace", value)) {
      g_trace = value;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  // A scenario or a partitioned run implies the custom row; default it to
  // the baseline scale.
  if ((!g_custom_scenario.empty() || g_custom_partitions > 1) && g_custom_nodes == 0) {
    g_custom_nodes = 500;
  }
}

}  // namespace
}  // namespace whatsup

int main(int argc, char** argv) {
  whatsup::parse_local_flags(argc, argv);
  benchmark::RegisterBenchmark("BM_WhatsUpSim_250n_100c",
                               whatsup::BM_WhatsUpSim_250n_100c)
      ->Unit(benchmark::kMillisecond);
  for (auto* bench :
       {benchmark::RegisterBenchmark("BM_WhatsUpSim_500n_200c",
                                     whatsup::BM_WhatsUpSim_500n_200c),
        benchmark::RegisterBenchmark("BM_WhatsUpSim_1000n_200c",
                                     whatsup::BM_WhatsUpSim_1000n_200c),
        benchmark::RegisterBenchmark("BM_WhatsUpSim_10000n_50c",
                                     whatsup::BM_WhatsUpSim_10000n_50c),
        benchmark::RegisterBenchmark("BM_WhatsUpSim_10000n_50c_Spread8",
                                     whatsup::BM_WhatsUpSim_10000n_50c_Spread8)}) {
    // UseRealTime: cycles/s must reflect the wall clock, not the calling
    // thread's CPU time (which sleeps at phase barriers while the pool
    // works).
    bench->Unit(benchmark::kMillisecond)->UseRealTime()->Arg(1)->Arg(4)->Arg(8);
  }
  // Fault-sweep rows run at 1 and 4 threads (the determinism grid's
  // acceptance pair); 8-thread scaling is tracked by the plain rows.
  for (auto* bench : {benchmark::RegisterBenchmark(
                          "BM_WhatsUpSim_500n_200c_ModelNetFaults",
                          whatsup::BM_WhatsUpSim_500n_200c_ModelNetFaults),
                      benchmark::RegisterBenchmark(
                          "BM_WhatsUpSim_500n_200c_PlanetLabFaults",
                          whatsup::BM_WhatsUpSim_500n_200c_PlanetLabFaults)}) {
    bench->Unit(benchmark::kMillisecond)->UseRealTime()->Arg(1)->Arg(4);
  }
  if (whatsup::g_custom_nodes != 0) {
    benchmark::RegisterBenchmark("BM_WhatsUpSim_Custom", whatsup::BM_WhatsUpSim_Custom)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!whatsup::g_trace.empty()) whatsup::obs::trace_start();
  benchmark::RunSpecifiedBenchmarks();
  if (!whatsup::g_trace.empty()) {
    whatsup::obs::trace_stop();
    std::ofstream out(whatsup::g_trace);
    const std::size_t events = whatsup::obs::trace_write_json(out);
    std::fprintf(stderr, "[trace] wrote %zu span(s) to %s\n", events,
                 whatsup::g_trace.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
