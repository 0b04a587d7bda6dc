// Unit tests for the sharded scheduler's building blocks: the worker
// pool, mailbox ring growth, counter-based RNG forks, the canonical
// send/delivery machinery, and the closed-form active-node draws.
#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "sim/engine.hpp"

namespace whatsup::sim {
namespace {

TEST(WorkerPool, CoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  for (int round = 0; round < 5; ++round) {
    constexpr std::size_t kItems = 137;
    std::vector<std::atomic<int>> hits(kItems);
    pool.run(kItems, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " round " << round;
    }
  }
}

TEST(WorkerPool, SingleThreadRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::size_t sum = 0;
  pool.run(10, [&](std::size_t i) { sum += i; });  // no data race: inline
  EXPECT_EQ(sum, 45u);
}

TEST(WorkerPool, MoreThreadsThanItems) {
  WorkerPool pool(8);
  std::atomic<int> count{0};
  pool.run(3, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(Shard, GrowWindowRebucketsByAbsoluteDueCycle) {
  Shard shard(0, 16, /*window=*/4);
  // The ring stores bare messages; sent_at doubles as a marker so the test
  // can confirm each message landed in its own due bucket after the grow.
  const auto queue_at = [&shard](Cycle due) {
    net::Message m;
    m.to = 1;
    m.sent_at = due;
    shard.bucket(due).push_back(std::move(m));
  };
  queue_at(2);
  queue_at(3);
  queue_at(5);  // shares bucket 1 (5 % 4) with due=1 slots
  // Dues {2, 3, 5} all sit in [now, now + window) for now = 2 — the
  // scheduling invariant grow_window's due recovery relies on.
  shard.grow_window(9, /*now=*/2);
  for (Cycle due : {2, 3, 5}) {
    const auto& bucket = shard.bucket(due);
    ASSERT_EQ(bucket.size(), 1u) << "due " << due;
    EXPECT_EQ(bucket[0].sent_at, due);
  }
}

TEST(Rng, TwoLevelForkIsDeterministicAndOrderSensitive) {
  const Rng root(123);
  Rng a = root.fork(7, 9);
  Rng b = root.fork(7, 9);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  // Distinct (stream, substream) pairs — including swapped ones — give
  // decorrelated streams.
  Rng c = root.fork(9, 7);
  Rng d = root.fork(7, 10);
  const std::uint64_t va = a.next_u64();
  EXPECT_NE(va, c.next_u64());
  EXPECT_NE(va, d.next_u64());
}

TEST(Rng, TwoLevelForkIgnoresParentDrawPosition) {
  // The fork is a function of the parent STATE; a pristine root yields the
  // same children no matter what other streams consumed.
  Rng root1(55);
  Rng root2(55);
  Rng unrelated = root2.fork(1);
  for (int i = 0; i < 100; ++i) unrelated.next_u64();  // burn a sibling
  Rng a = root1.fork(3, 4);
  Rng b = root2.fork(3, 4);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// Minimal recording agent for engine-level scheduling tests.
class ProbeAgent : public Agent {
 public:
  void on_cycle(Context&) override {}
  void on_message(Context& ctx, const net::Message& m) override {
    received.push_back({m.from, ctx.now()});
    seqs.push_back(m.seq);
  }
  void publish(Context&, ItemIdx, ItemId) override {}

  std::vector<std::pair<NodeId, Cycle>> received;
  std::vector<std::uint32_t> seqs;
};

struct ProbeFixture {
  explicit ProbeFixture(Engine::Config config, int n = 8) : engine(config) {
    for (int i = 0; i < n; ++i) {
      auto agent = std::make_unique<ProbeAgent>();
      probes.push_back(agent.get());
      engine.add_agent(std::move(agent));
    }
  }
  Engine engine;
  std::vector<ProbeAgent*> probes;
};

net::Message news_message(NodeId from, NodeId to) {
  net::Message m;
  m.from = from;
  m.to = to;
  m.type = net::MsgType::kNews;
  m.payload = net::NewsPayload{};
  return m;
}

TEST(ShardedEngine, DeliveryOrderIdenticalAcrossThreadAndShardConfigs) {
  const auto run_once = [](unsigned threads, std::size_t shard_nodes) {
    Engine::Config config;
    config.seed = 77;
    config.network.jitter = 2;
    config.threads = threads;
    config.shard_nodes = shard_nodes;
    ProbeFixture fx(config, 12);
    for (int c = 0; c < 4; ++c) {
      for (NodeId from = 0; from < 12; ++from) {
        for (NodeId to = 0; to < 12; ++to) {
          if (from != to) fx.engine.send(news_message(from, to));
        }
      }
      fx.engine.run_cycle();
    }
    fx.engine.run_cycles(4);
    std::vector<std::vector<std::pair<NodeId, Cycle>>> out;
    for (auto* probe : fx.probes) out.push_back(probe->received);
    return out;
  };
  const auto base = run_once(1, 4);
  EXPECT_EQ(base, run_once(4, 4));
  EXPECT_EQ(base, run_once(8, 4));
  EXPECT_EQ(base, run_once(4, 3));   // different width, same trajectory
  EXPECT_EQ(base, run_once(2, 64));  // single shard
}

// An agent that fans several messages out of one turn.
class BurstAgent : public Agent {
 public:
  void on_cycle(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (int i = 0; i < 3; ++i) {
      net::NewsPayload news;
      news.id = static_cast<ItemId>(i);
      ctx.send(1, net::MsgType::kNews, news);
    }
  }
  void on_message(Context&, const net::Message& m) override {
    seqs.push_back(m.seq);
  }
  void publish(Context&, ItemIdx, ItemId) override {}

  std::vector<std::uint32_t> seqs;
};

TEST(ShardedEngine, SeqLabelsPositionWithinTheSendersTurn) {
  Engine::Config config;
  config.seed = 13;
  Engine engine(config);
  std::vector<BurstAgent*> agents;
  for (int i = 0; i < 2; ++i) {
    auto agent = std::make_unique<BurstAgent>();
    agents.push_back(agent.get());
    engine.add_agent(std::move(agent));
  }
  engine.run_cycles(2);
  // Node 0's turn emitted seq 0,1,2; node 1 received them in its own
  // (shuffled) delivery order, so the labels form a permutation.
  std::vector<std::uint32_t> sorted = agents[1]->seqs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(ShardedEngine, RaisingLatencyMidRunGrowsTheMailboxWindow) {
  Engine::Config config;
  ProbeFixture fx(config, 4);
  fx.engine.run_cycle();  // materialize shards at the small window
  fx.engine.send(news_message(0, 1));
  net::NetworkConfig slow;
  slow.latency = 7;
  fx.engine.set_network(slow);
  fx.engine.send(news_message(0, 2));
  fx.engine.run_cycles(2);
  EXPECT_EQ(fx.probes[1]->received.size(), 1u);  // pre-change message intact
  EXPECT_TRUE(fx.probes[2]->received.empty());
  fx.engine.run_cycles(6);
  EXPECT_EQ(fx.probes[2]->received.size(), 1u);
}

// ---- closed-form active draws (regression for the biased retry loop) ----

TEST(RandomActive, ExactlyUniformOverNonExcludedActives) {
  Engine::Config config;
  config.seed = 9;
  ProbeFixture fx(config, 5);
  fx.engine.set_active(1, false);
  // Active: {0, 2, 3, 4}; excluding 3 leaves {0, 2, 4}.
  Rng rng(config.seed);
  std::array<int, 5> counts{};
  constexpr int kDraws = 30000;
  for (int i = 0; i < kDraws; ++i) {
    const NodeId pick = fx.engine.draw_active(rng, 3);
    ASSERT_LT(pick, 5u);
    ++counts[pick];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_EQ(counts[3], 0);
  for (const NodeId v : {0u, 2u, 4u}) {
    EXPECT_NEAR(counts[v], kDraws / 3.0, kDraws * 0.02) << "node " << v;
  }
}

TEST(RandomActive, OnlyExcludedActiveTerminatesWithNoNode) {
  ProbeFixture fx({}, 4);
  for (NodeId v : {0u, 1u, 2u}) fx.engine.set_active(v, false);
  Rng rng(1);
  // The old rejection loop had only its attempt bound between this call
  // and spinning forever; the closed-form draw answers immediately.
  EXPECT_EQ(fx.engine.draw_active(rng, 3), kNoNode);
  EXPECT_NE(fx.engine.draw_active(rng, 0), kNoNode);  // inactive exclusion: fine
  fx.engine.set_active(3, false);
  EXPECT_EQ(fx.engine.draw_active(rng, kNoNode), kNoNode);  // nobody active
}

TEST(RandomActive, SingleDrawConsumedPerCall) {
  // The closed-form draw must consume exactly one index draw, so the
  // caller's stream does not depend on the activity pattern's shape.
  Engine::Config config;
  config.seed = 31;
  ProbeFixture fx(config, 6);
  Rng a(config.seed), b(config.seed);
  fx.engine.draw_active(a, 2);
  fx.engine.draw_active(b, 4);
  // Both streams must still agree after one draw each.
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RandomActive, ContextPeerDrawExcludesSelfAndUsesNodeStream) {
  Engine::Config config;
  config.seed = 5;
  ProbeFixture fx(config, 4);
  Context ctx(fx.engine, 2);
  for (int i = 0; i < 200; ++i) {
    const NodeId pick = ctx.random_active_peer();
    ASSERT_NE(pick, 2u);
    ASSERT_LT(pick, 4u);
  }
  // Excluding a second node narrows the support accordingly.
  for (int i = 0; i < 200; ++i) {
    const NodeId pick = ctx.random_active_peer(0);
    ASSERT_TRUE(pick == 1u || pick == 3u);
  }
}

TEST(RandomActive, DrawActiveExcludingBothIds) {
  ProbeFixture fx({}, 5);
  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    const NodeId pick = fx.engine.draw_active_excluding(rng, 1, 3);
    ASSERT_TRUE(pick == 0u || pick == 2u || pick == 4u);
  }
  for (NodeId v : {0u, 2u, 4u}) fx.engine.set_active(v, false);
  EXPECT_EQ(fx.engine.draw_active_excluding(rng, 1, 3), kNoNode);
}

}  // namespace
}  // namespace whatsup::sim
