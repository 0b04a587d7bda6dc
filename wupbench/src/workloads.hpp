// The benchmark's workloads. Each one stresses a different simulator
// layer (see wupbench/README.md for the layer -> metric -> workload map):
//
//   gossip-2k-t1   2000 users, 100 items, 1 thread: WUP/RPS merge, the
//                  similarity kernel and snapshot materialization.
//   storm-1k-t4    1000 users, 1000 items, 4 threads: the news path,
//                  multi-core deliver scaling and the memory peak.
//   hostile-2k-t2  2000 users, 100 items, 2 threads, planetlab_faults()
//                  network, reliability + view hygiene, and a churn /
//                  crash / leave-join timeline: barrier commit through the
//                  fault model, acks and retransmits, the scenario layer.
//
// The user population is one fixed survey-generator instance per workload
// size, as the paper's Table I workloads are fixed datasets. The workload
// seed is the run seed: it draws the publication calendar, the bootstrap
// wiring and every protocol, network and scenario random stream. Seeding
// the population too would make f1 vary across seeds by more than any
// useful regression bound. Every workload runs 5 warmup, 80 publication
// and 15 drain cycles, so its publication calendar is fixed in simulated
// time.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/runner.hpp"
#include "dataset/workload.hpp"
#include "scenario/scenario.hpp"

namespace wupbench {

// Closed interval a correct run's score must fall in.
struct Band {
  double lo = 0.0;
  double hi = 1.0;
  bool contains(double x) const { return x >= lo && x <= hi; }
};

struct WorkloadSpec {
  std::string name;
  std::size_t users = 0;
  std::size_t items = 0;
  unsigned threads = 1;        // engine threads of the measured runs
  unsigned check_threads = 4;  // thread count of the fingerprint cross-check
  bool hostile = false;        // fault network + reliability + timeline
  // Fewest timed runs per invocation. Each cycle is timed as its best over
  // the runs; a single-threaded run sits on one core and takes that core's
  // interference whole, so it needs more runs than one spread over cores.
  int min_runs = 3;
  // Output-check bands, set from seed runs with a margin.
  Band f1;
  Band recall;
};

const std::vector<WorkloadSpec>& workloads();
// nullptr when no workload has that name.
const WorkloadSpec* find_workload(std::string_view name);

// The user population: a survey workload of spec.users x spec.items
// scaled by `scale` (tests run the same shapes at reduced size).
whatsup::data::Workload make_population(const WorkloadSpec& spec, double scale = 1.0);

// The run configuration for `users` honest nodes; `seed` is the workload
// seed.
whatsup::analysis::RunConfig make_config(const WorkloadSpec& spec,
                                         std::uint64_t seed, std::size_t users);

// hostile-2k-t2's event timeline, with counts proportional to `users`: a
// 10% leave wave and its return, a rotating 1% churn slice, and a 2% crash
// wave that recovers through the rejoin handshake.
whatsup::scenario::Timeline hostile_timeline(std::size_t users);

}  // namespace wupbench
