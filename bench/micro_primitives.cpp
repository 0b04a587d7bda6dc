// Microbenchmarks of the hot kernels in the WhatsUp stack: similarity
// computation (the WUP clustering inner loop), view merges, item-profile
// aggregation, and the SCC analysis used by Fig. 4.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "gossip/view.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "graph/static_graph.hpp"
#include "profile/item_profile.hpp"
#include "profile/similarity.hpp"

// Global operator-new hook counting heap allocations, so the payload
// benchmarks can report `allocs_per_op` — the number the CoW + SBO work
// is meant to drive to zero on the news fan-out path. Bench binary only;
// the library itself is untouched.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::uint64_t allocs_now() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace whatsup {
namespace {

Profile random_profile(Rng& rng, std::size_t entries, ItemId universe) {
  Profile p;
  for (std::size_t i = 0; i < entries; ++i) {
    p.set(rng.index(universe) + 1, static_cast<Cycle>(rng.index(50)),
          rng.bernoulli(0.5) ? 1.0 : 0.0);
  }
  return p;
}

// The raw pairwise kernel (one subject/candidate pair, fixed operands).
void BM_WupSimilarityKernel(benchmark::State& state) {
  Rng rng(1);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile a = random_profile(rng, size, 4 * size);
  const Profile b = random_profile(rng, size, 4 * size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wup_similarity(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WupSimilarityKernel)->Arg(16)->Arg(64)->Arg(256);

void BM_CosineSimilarity(benchmark::State& state) {
  Rng rng(2);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile a = random_profile(rng, size, 4 * size);
  const Profile b = random_profile(rng, size, 4 * size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cosine_similarity(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CosineSimilarity)->Arg(16)->Arg(64)->Arg(256);

void BM_ProfileFold(benchmark::State& state) {
  Rng rng(3);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile user = random_profile(rng, size, 4 * size);
  for (auto _ : state) {
    Profile item;
    item.fold_profile(user);
    benchmark::DoNotOptimize(item);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileFold)->Arg(64)->Arg(256);

// The production merge path (ClusteringProtocol::merge): every candidate
// is scored afresh, then top-K selected.
void BM_ViewMergeClosest(benchmark::State& state) {
  Rng rng(4);
  const auto n_candidates = static_cast<std::size_t>(state.range(0));
  const Profile own = random_profile(rng, 100, 400);
  std::vector<net::Descriptor> candidates;
  for (std::size_t i = 0; i < n_candidates; ++i) {
    candidates.push_back(
        net::make_descriptor(static_cast<NodeId>(i), 0, random_profile(rng, 100, 400)));
  }
  for (auto _ : state) {
    gossip::View view(20);
    view.assign_closest(candidates, own, Metric::kWup, rng);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() * n_candidates);
}
BENCHMARK(BM_ViewMergeClosest)->Arg(30)->Arg(70)->Arg(150);

// ---- Compact profile codec (profile/compact.hpp) --------------------------
//
// The storage layer under every descriptor: encode of a profile into a
// record (raw ids, score mask, delta-coded timestamps), the by-value decode
// that cold paths pay, and the in-place WUP score the hot paths run
// against a record (against a user profile of the same size).
void BM_CompactEncode(benchmark::State& state) {
  Rng rng(8);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile profile = random_profile(rng, size, 4 * size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProfileHandle::snapshot(profile));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompactEncode)->Arg(16)->Arg(64)->Arg(256);

void BM_CompactDecode(benchmark::State& state) {
  Rng rng(8);
  const auto size = static_cast<std::size_t>(state.range(0));
  const ProfileHandle handle =
      ProfileHandle::snapshot(random_profile(rng, size, 4 * size));
  for (auto _ : state) {
    benchmark::DoNotOptimize(handle.decode());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompactDecode)->Arg(16)->Arg(64)->Arg(256);

void BM_CompactScoreInPlace(benchmark::State& state) {
  Rng rng(8);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile subject = random_profile(rng, size, 4 * size);
  const ProfileHandle handle =
      ProfileHandle::snapshot(random_profile(rng, size, 4 * size));
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity(Metric::kWup, subject, handle.view()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompactScoreInPlace)->Arg(16)->Arg(64)->Arg(256);

// ---- News payload replication (BEEP fan-out, §III) ------------------------
//
// Forwarding a liked item replicates the payload fLIKE times. Pre-PR the
// item profile was held by value (one deep copy per target); the shipped
// ItemProfileRef shares it copy-on-write (one refcount bump per target).
// `allocs_per_op` counts heap allocations per replicated fan-out.

constexpr int kNewsFanout = 10;  // the paper's fLIKE

// Pre-change behavior: the item profile deep-copied once per target.
void BM_NewsPayloadReplicateByValue(benchmark::State& state) {
  Rng rng(9);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile profile = random_profile(rng, size, 4 * size);
  const std::uint64_t before = allocs_now();
  for (auto _ : state) {
    for (int i = 0; i < kNewsFanout; ++i) {
      Profile copy = profile;
      benchmark::DoNotOptimize(copy);
    }
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_now() - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * kNewsFanout);
}
BENCHMARK(BM_NewsPayloadReplicateByValue)->Arg(8)->Arg(64)->Arg(256);

// Shipped path: fLIKE copies of the payload bump one shared refcount.
void BM_NewsPayloadReplicateCoW(benchmark::State& state) {
  Rng rng(9);
  const auto size = static_cast<std::size_t>(state.range(0));
  net::NewsPayload news;
  news.item_profile = random_profile(rng, size, 4 * size);
  const std::uint64_t before = allocs_now();
  for (auto _ : state) {
    for (int i = 0; i < kNewsFanout; ++i) {
      net::NewsPayload copy = news;
      benchmark::DoNotOptimize(copy);
    }
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_now() - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * kNewsFanout);
}
BENCHMARK(BM_NewsPayloadReplicateCoW)->Arg(8)->Arg(64)->Arg(256);

// One full BEEP hop on the shipped path: receive a payload that still
// shares its profile with the sender's copy, fold the user profile into
// it (the one CoW clone), run the no-op window purge, then replicate to
// the fan-out. This is the per-delivery cost handle_news + forward pay.
void BM_NewsHopForward(benchmark::State& state) {
  Rng rng(10);
  const auto size = static_cast<std::size_t>(state.range(0));
  const Profile user = random_profile(rng, size, 4 * size);
  net::NewsPayload incoming;
  incoming.item_profile = random_profile(rng, size, 4 * size);
  const std::uint64_t before = allocs_now();
  for (auto _ : state) {
    net::NewsPayload news = incoming;        // delivery copy (shared)
    news.item_profile.fold_profile(user);    // CoW clone, then in-place
    news.item_profile.purge_older_than(0);   // no-op purge: no clone
    for (int i = 0; i < kNewsFanout; ++i) {
      net::NewsPayload copy = news;          // fan-out: refcount bumps
      benchmark::DoNotOptimize(copy);
    }
  }
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(allocs_now() - before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NewsHopForward)->Arg(8)->Arg(64)->Arg(256);

void BM_MergeCandidates(benchmark::State& state) {
  Rng rng(5);
  std::vector<net::Descriptor> base, incoming;
  for (NodeId v = 0; v < 40; ++v) {
    base.push_back(net::Descriptor{v, static_cast<Cycle>(rng.index(100)), nullptr});
    incoming.push_back(
        net::Descriptor{v + 20, static_cast<Cycle>(rng.index(100)), nullptr});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gossip::merge_candidates(base, incoming, 0));
  }
}
BENCHMARK(BM_MergeCandidates);

void BM_LargestScc(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  // Overlay-like digraph: 20 random out-edges per node.
  graph::StaticGraph::Builder b(n);
  for (NodeId v = 0; v < n; ++v) b.set_degree(v, 20);
  b.finish_degrees();
  for (NodeId v = 0; v < n; ++v) {
    for (int e = 0; e < 20; ++e) {
      b.add_edge(v, static_cast<NodeId>(rng.index(n)));
    }
  }
  b.dedupe_rows(0, static_cast<NodeId>(n));
  const graph::StaticGraph g = b.build();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::largest_scc_fraction(g));
  }
}
BENCHMARK(BM_LargestScc)->Arg(500)->Arg(3000);

}  // namespace
}  // namespace whatsup

BENCHMARK_MAIN();
