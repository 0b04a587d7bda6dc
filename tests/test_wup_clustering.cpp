#include "gossip/clustering_protocol.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "protocol_test_utils.hpp"

namespace whatsup::gossip {
namespace {

using testing::ClusteringAgent;
using testing::bootstrap_ring;

Profile group_profile(int group, std::size_t items_per_group = 10) {
  Profile p;
  const ItemId base = static_cast<ItemId>(group) * 1000 + 1;
  for (std::size_t i = 0; i < items_per_group; ++i) {
    p.set(base + i, 0, 1.0);
  }
  return p;
}

struct ClusterFixture {
  ClusterFixture(std::size_t n, int groups, Metric metric, std::uint64_t seed = 1)
      : engine(sim::Engine::Config{seed, {}, {}}) {
    for (std::size_t v = 0; v < n; ++v) {
      const int group = static_cast<int>(v) % groups;
      auto agent = std::make_unique<ClusteringAgent>(static_cast<NodeId>(v), 8, 5,
                                                     metric, group_profile(group));
      group_of.push_back(group);
      agents.push_back(agent.get());
      engine.add_agent(std::move(agent));
    }
    bootstrap_ring(agents, 3);
  }

  // Fraction of WUP-view edges that stay within the node's interest group.
  double homophily() const {
    std::size_t same = 0, total = 0;
    for (std::size_t v = 0; v < agents.size(); ++v) {
      for (const auto& d : agents[v]->wup_view().entries()) {
        ++total;
        if (group_of[d.node] == group_of[v]) ++same;
      }
    }
    return total > 0 ? static_cast<double>(same) / static_cast<double>(total) : 0.0;
  }

  sim::Engine engine;
  std::vector<ClusteringAgent*> agents;
  std::vector<int> group_of;
};

TEST(WupClustering, ConvergesToInterestGroups) {
  ClusterFixture fx(60, 3, Metric::kWup);
  fx.engine.run_cycles(30);
  // 3 groups of 20: random views would have homophily ~1/3.
  EXPECT_GT(fx.homophily(), 0.9);
  for (auto* agent : fx.agents) EXPECT_EQ(agent->wup_view().size(), 5u);
}

TEST(WupClustering, CosineMetricAlsoClusters) {
  ClusterFixture fx(60, 3, Metric::kCosine);
  fx.engine.run_cycles(30);
  EXPECT_GT(fx.homophily(), 0.9);
}

TEST(WupClustering, ViewsExcludeSelf) {
  ClusterFixture fx(30, 2, Metric::kWup);
  fx.engine.run_cycles(20);
  for (NodeId v = 0; v < fx.agents.size(); ++v) {
    EXPECT_FALSE(fx.agents[v]->wup_view().contains(v));
  }
}

TEST(WupClustering, EmptyProfilesStillFillViews) {
  // Cold start: all similarities are 0, the view fills with random peers
  // drawn from the RPS candidate stream.
  sim::Engine engine(sim::Engine::Config{3, {}, {}});
  std::vector<ClusteringAgent*> agents;
  for (NodeId v = 0; v < 20; ++v) {
    auto agent = std::make_unique<ClusteringAgent>(v, 6, 4, Metric::kWup, Profile{});
    agents.push_back(agent.get());
    engine.add_agent(std::move(agent));
  }
  bootstrap_ring(agents, 2);
  engine.run_cycles(15);
  for (auto* agent : agents) EXPECT_EQ(agent->wup_view().size(), 4u);
}

// Mean over the view of similarity(metric, own, member), in view order —
// the definition the Fig. 7 convergence probe must reproduce exactly.
double direct_avg_similarity(const View& view, Metric metric, const Profile& own) {
  if (view.empty()) return 0.0;
  double total = 0.0;
  for (const net::Descriptor& d : view.entries()) {
    total += similarity(metric, own, d.profile_ref());
  }
  return total / static_cast<double>(view.size());
}

// Network-wide mean of every agent's convergence probe on its own profile.
double mean_avg_similarity(const ClusterFixture& fx) {
  double total = 0.0;
  for (const auto* a : fx.agents) total += a->wup().avg_similarity(a->profile());
  return total / static_cast<double>(fx.agents.size());
}

TEST(WupClustering, AvgSimilarityGrowsDuringConvergence) {
  ClusterFixture fx(60, 3, Metric::kWup);
  fx.engine.run_cycles(3);
  const double early = mean_avg_similarity(fx);
  fx.engine.run_cycles(27);
  EXPECT_GT(fx.homophily(), 0.8);
  EXPECT_GT(mean_avg_similarity(fx), early);
}

TEST(WupClustering, AvgSimilarityEqualsMeanOfDirectScores) {
  for (const Metric metric : {Metric::kWup, Metric::kCosine}) {
    ClusterFixture fx(30, 3, metric);
    fx.engine.run_cycles(10);
    for (const auto* a : fx.agents) {
      ASSERT_FALSE(a->wup_view().empty());
      // Probe with a copy of the subject profile, then mutate the copy
      // between two calls: the second call must score the mutated profile.
      Profile own = a->profile();
      const double before = a->wup().avg_similarity(own);
      EXPECT_EQ(before, direct_avg_similarity(a->wup_view(), metric, own));
      for (const net::Descriptor& d : a->wup_view().entries()) {
        const Profile& member = d.profile_ref();
        if (member.size() > 0) own.set(member.entry(0).id, 1, 0.0);
      }
      const double after = a->wup().avg_similarity(own);
      EXPECT_EQ(after, direct_avg_similarity(a->wup_view(), metric, own));
      EXPECT_NE(after, before);
    }
  }
}

TEST(WupClustering, GossipTrafficTagged) {
  ClusterFixture fx(20, 2, Metric::kWup);
  fx.engine.run_cycles(5);
  EXPECT_GT(fx.engine.traffic().messages(net::Protocol::kWup), 0u);
  EXPECT_GT(fx.engine.traffic().messages(net::Protocol::kRps), 0u);
  EXPECT_EQ(fx.engine.traffic().messages(net::Protocol::kBeep), 0u);
}

}  // namespace
}  // namespace whatsup::gossip
