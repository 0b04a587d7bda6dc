// Tests of the benchmark itself: the composed driver must run the same
// program as analysis::run_protocol, and the output checks must reject
// wrong results.
#include <gtest/gtest.h>

#include "analysis/runner.hpp"
#include "check.hpp"
#include "composed.hpp"
#include "workloads.hpp"

namespace {

using namespace whatsup;
using namespace wupbench;

constexpr double kReducedScale = 0.1;  // 200-node gossip/hostile, 100-node storm

class ComposedEquivalence : public ::testing::TestWithParam<std::string> {};

// Bit-for-bit: per-cycle digests, scores, traffic, reliability and overlay
// statistics of the composed driver equal run_protocol's on the same
// inputs, for each workload shape at reduced size. Collection is repeated,
// as the benchmark does, to show that repeats leave the result unchanged.
TEST_P(ComposedEquivalence, ReproducesRunProtocol) {
  const WorkloadSpec* spec = find_workload(GetParam());
  ASSERT_NE(spec, nullptr);
  const data::Workload input = make_population(*spec, kReducedScale);
  analysis::RunConfig config = make_config(*spec, 5, input.num_users());
  config.collect_cycle_digests = true;

  const analysis::RunResult expected = analysis::run_protocol(input, config);
  ComposedOptions options;
  options.collect_repeats = 3;
  const ComposedRun composed = run_composed(input, config, options);
  const analysis::RunResult& got = composed.result;

  ASSERT_EQ(expected.cycle_digests.size(),
            static_cast<std::size_t>(config.total_cycles()));
  EXPECT_EQ(got.cycle_digests, expected.cycle_digests);
  EXPECT_EQ(got.measured, expected.measured);
  EXPECT_EQ(got.scores.precision, expected.scores.precision);
  EXPECT_EQ(got.scores.recall, expected.scores.recall);
  EXPECT_EQ(got.scores.f1, expected.scores.f1);
  EXPECT_EQ(got.scores.items, expected.scores.items);
  EXPECT_EQ(got.per_user.f1, expected.per_user.f1);
  EXPECT_EQ(got.news_messages, expected.news_messages);
  EXPECT_EQ(got.gossip_messages, expected.gossip_messages);
  EXPECT_EQ(got.msgs_per_user, expected.msgs_per_user);
  EXPECT_EQ(got.kbps_total, expected.kbps_total);
  EXPECT_EQ(got.reliability.tracked, expected.reliability.tracked);
  EXPECT_EQ(got.reliability.retransmits, expected.reliability.retransmits);
  EXPECT_EQ(got.reliability.ack_messages, expected.reliability.ack_messages);
  EXPECT_EQ(got.reliability.duplicates, expected.reliability.duplicates);
  EXPECT_EQ(got.reliability.deliveries, expected.reliability.deliveries);
  EXPECT_EQ(got.reliability.window_latency, expected.reliability.window_latency);
  EXPECT_EQ(got.windows.size(), expected.windows.size());
  EXPECT_EQ(got.overlay.lscc_fraction, expected.overlay.lscc_fraction);
  EXPECT_EQ(got.overlay.clustering, expected.overlay.clustering);
  EXPECT_EQ(got.overlay.components, expected.overlay.components);
  EXPECT_EQ(got.dislike_fractions, expected.dislike_fractions);
  EXPECT_EQ(got.hops_per_item.forward_like, expected.hops_per_item.forward_like);

  // The workload shapes exercise what they are meant to.
  EXPECT_GT(got.news_messages, 0u);
  EXPECT_EQ(spec->hostile, got.reliability.tracked > 0);
  EXPECT_EQ(spec->hostile, !got.windows.empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, ComposedEquivalence,
                         ::testing::Values("gossip-2k-t1", "storm-1k-t4",
                                           "hostile-2k-t2"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ComposedRun, SetupOnlyStopsBeforeTheLoop) {
  const WorkloadSpec& spec = *find_workload("gossip-2k-t1");
  const data::Workload input = make_population(spec, kReducedScale);
  ComposedOptions options;
  options.setup_only = true;
  const ComposedRun run =
      run_composed(input, make_config(spec, 3, input.num_users()), options);
  EXPECT_GT(run.timing.setup_s, 0.0);
  EXPECT_GT(run.timing.bootstrap_s, 0.0);
  EXPECT_TRUE(run.timing.cycle_s.empty());
  EXPECT_TRUE(run.result.cycle_digests.empty());
}

TEST(ComposedRun, FingerprintIsThreadCountInvariant) {
  const WorkloadSpec& spec = *find_workload("storm-1k-t4");
  const data::Workload input = make_population(spec, kReducedScale);
  analysis::RunConfig config = make_config(spec, 9, input.num_users());
  config.collect_cycle_digests = true;
  const std::uint64_t at_spec =
      fingerprint(run_composed(input, config).result.cycle_digests);
  config.threads = spec.check_threads;
  EXPECT_EQ(fingerprint(run_composed(input, config).result.cycle_digests), at_spec);
}

TEST(ComposedRun, RejectsUncomposedConfigurations) {
  const WorkloadSpec& spec = *find_workload("gossip-2k-t1");
  const data::Workload input = make_population(spec, kReducedScale);
  analysis::RunConfig config = make_config(spec, 3, input.num_users());
  config.approach = analysis::Approach::kGossip;
  EXPECT_THROW(run_composed(input, config), std::invalid_argument);
}

TEST(Fingerprint, MatchesScenarioSimFormat) {
  // FNV-1a 64 over the little-endian bytes of each digest.
  EXPECT_EQ(fingerprint({}), 0xcbf29ce484222325ULL);
  const std::uint64_t one = fingerprint({1});
  EXPECT_NE(one, fingerprint({}));
  EXPECT_NE(fingerprint({1, 2}), fingerprint({2, 1}));
}

TEST(OutputCheck, RejectsAWrongFingerprint) {
  EXPECT_FALSE(check_fingerprint(0x1234, 0x1234, "the reference").has_value());
  const auto reason = check_fingerprint(0x1234, 0x1235, "the 4-thread run");
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("the 4-thread run"), std::string::npos);
}

TEST(OutputCheck, RejectsOutOfBandScores) {
  for (const WorkloadSpec& spec : workloads()) {
    metrics::Scores scores;
    scores.f1 = 0.5 * (spec.f1.lo + spec.f1.hi);
    scores.recall = 0.5 * (spec.recall.lo + spec.recall.hi);
    EXPECT_FALSE(check_scores(spec, scores).has_value()) << spec.name;

    metrics::Scores low_f1 = scores;
    low_f1.f1 = spec.f1.lo - 0.01;
    EXPECT_TRUE(check_scores(spec, low_f1).has_value()) << spec.name;
    metrics::Scores high_f1 = scores;
    high_f1.f1 = spec.f1.hi + 0.01;
    EXPECT_TRUE(check_scores(spec, high_f1).has_value()) << spec.name;
    metrics::Scores low_recall = scores;
    low_recall.recall = spec.recall.lo - 0.01;
    EXPECT_TRUE(check_scores(spec, low_recall).has_value()) << spec.name;

    // A run that delivered nothing is never in band.
    EXPECT_TRUE(check_scores(spec, metrics::Scores{}).has_value()) << spec.name;
  }
}

TEST(OutputCheck, RejectsOverflowDrops) {
  EXPECT_FALSE(check_overflow(0).has_value());
  EXPECT_TRUE(check_overflow(3).has_value());
}

TEST(Workloads, HostileTimelineScalesWithNodeCount) {
  const scenario::Timeline small = hostile_timeline(200);
  const scenario::Timeline large = hostile_timeline(2000);
  ASSERT_EQ(small.events().size(), large.events().size());
  const auto& leave_small = std::get<scenario::LeaveWave>(small.events()[0].action);
  const auto& leave_large = std::get<scenario::LeaveWave>(large.events()[0].action);
  EXPECT_EQ(leave_small.count * 10, leave_large.count);
  EXPECT_LT(large.horizon(), 100);  // every event fires inside the 100-cycle run
}

}  // namespace
