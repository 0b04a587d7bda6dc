#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "dataset/survey.hpp"
#include "net/network.hpp"

namespace wupbench {

using namespace whatsup;

const std::vector<WorkloadSpec>& workloads() {
  // Bands: the f1 and recall range over 25-40 seeds (gossip f1
  // 0.386-0.424, recall 0.553-0.620; storm 0.441-0.456, 0.614-0.656;
  // hostile 0.389-0.452, 0.539-0.626), widened by about 0.07 on each side.
  static const std::vector<WorkloadSpec> specs = {
      {"gossip-2k-t1", 2000, 100, 1, 4, false, 5, {0.31, 0.50}, {0.48, 0.69}},
      {"storm-1k-t4", 1000, 1000, 4, 3, false, 3, {0.37, 0.53}, {0.54, 0.73}},
      {"hostile-2k-t2", 2000, 100, 2, 4, true, 3, {0.32, 0.52}, {0.47, 0.70}},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

data::Workload make_population(const WorkloadSpec& spec, double scale) {
  const auto scaled = [scale](std::size_t x) {
    return std::max<std::size_t>(2, static_cast<std::size_t>(std::llround(
                                        static_cast<double>(x) * scale)));
  };
  Rng rng(0x77b3e4c1d5a2f609ULL);
  data::SurveyConfig config;
  config.base_users = scaled(spec.users) / 2;
  config.base_items = scaled(spec.items) / 2;
  config.replication = 2;
  return data::make_survey(config, rng);
}

scenario::Timeline hostile_timeline(std::size_t users) {
  const auto share = [users](double fraction) {
    const auto count = std::llround(fraction * static_cast<double>(users));
    return std::max<std::uint32_t>(1, static_cast<std::uint32_t>(count));
  };
  scenario::Timeline timeline;
  timeline.name = "hostile";
  timeline.at(20, scenario::LeaveWave{share(0.10)});
  timeline.at(30, scenario::JoinWave{share(0.10)});
  timeline.at(35, scenario::ChurnProcess{share(0.01), 5, 75});
  timeline.at(45, scenario::CrashRecovery{share(0.02), 10});
  return timeline;
}

analysis::RunConfig make_config(const WorkloadSpec& spec, std::uint64_t seed,
                                std::size_t users) {
  analysis::RunConfig config;
  config.approach = analysis::Approach::kWhatsUp;
  config.fanout = 8;
  config.seed = seed;
  config.threads = spec.threads;
  config.warmup_cycles = 5;
  config.publish_cycles = 80;
  config.drain_cycles = 15;
  config.measure_margin = 13;
  if (spec.hostile) {
    config.network = net::NetworkConfig::planetlab_faults();
    config.reliability.enabled = true;
    config.view_hygiene.max_age = 20;
    config.view_hygiene.suspicion_limit = 2;
    config.scenario = hostile_timeline(users);
  }
  return config;
}

}  // namespace wupbench
