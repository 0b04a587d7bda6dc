// CSR StaticGraph (graph/static_graph.hpp): builder contract plus
// property tests checking scc / weak_components /
// avg_clustering_coefficient against independent references on
// graph::generators random instances: a brute-force mutual-reachability
// oracle for SCCs, and the UGraph closure's connected_components and
// avg_clustering_coefficient for the undirected measures.
#include "graph/static_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "graph/clustering.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "graph_test_utils.hpp"

namespace whatsup::graph {
namespace {

using testing::EdgeList;
using testing::graph_from_edges;

// Overlay-shaped random digraph: every node draws `k` random out-edges
// (duplicates and self-draws allowed, to exercise dedupe and the
// self-loop filter — exactly what a gossip view dump produces).
EdgeList random_view_edges(std::size_t n, std::size_t k, Rng& rng) {
  EdgeList edges;
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < k; ++i) {
      edges.emplace_back(v, static_cast<NodeId>(rng.index(n)));
    }
  }
  return edges;
}

EdgeList directed_copy(const UGraph& u) {
  EdgeList edges;
  for (NodeId v = 0; v < u.num_nodes(); ++v) {
    for (const NodeId w : u.neighbors(v)) edges.emplace_back(v, w);
  }
  return edges;
}

// Sorted, deduplicated, self-loop-free out-rows of an edge list.
std::vector<std::vector<NodeId>> reference_rows(std::size_t n, const EdgeList& edges) {
  std::vector<std::vector<NodeId>> rows(n);
  for (const auto& [v, w] : edges) {
    if (v != w) rows[v].push_back(w);
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return rows;
}

// Brute-force SCC oracle: v and w share a component iff each reaches the
// other. Labels each node with the smallest node mutually reachable from it.
std::vector<NodeId> mutual_reachability_labels(
    const std::vector<std::vector<NodeId>>& rows) {
  const std::size_t n = rows.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (NodeId s = 0; s < n; ++s) {
    std::vector<NodeId> frontier{s};
    reach[s][s] = true;
    while (!frontier.empty()) {
      const NodeId v = frontier.back();
      frontier.pop_back();
      for (const NodeId w : rows[v]) {
        if (!reach[s][w]) {
          reach[s][w] = true;
          frontier.push_back(w);
        }
      }
    }
  }
  std::vector<NodeId> label(n);
  for (NodeId v = 0; v < n; ++v) {
    NodeId u = 0;
    while (!(reach[v][u] && reach[u][v])) ++u;
    label[v] = u;
  }
  return label;
}

void expect_correct_analysis(std::size_t n, const EdgeList& edges) {
  const StaticGraph csr = graph_from_edges(n, edges);
  const auto rows = reference_rows(n, edges);

  ASSERT_EQ(csr.num_nodes(), n);
  std::size_t m = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto got = csr.out(v);
    ASSERT_TRUE(std::equal(rows[v].begin(), rows[v].end(), got.begin(), got.end()))
        << "row " << v;
    m += rows[v].size();
  }
  ASSERT_EQ(csr.num_edges(), m);

  // SCC: count, largest and the partition (up to relabelling) against the
  // mutual-reachability oracle.
  const std::vector<NodeId> oracle = mutual_reachability_labels(rows);
  std::vector<std::size_t> class_size(n, 0);
  for (const NodeId u : oracle) ++class_size[u];
  const std::size_t oracle_count = static_cast<std::size_t>(
      std::count_if(class_size.begin(), class_size.end(),
                    [](std::size_t s) { return s > 0; }));
  const std::size_t oracle_largest =
      n == 0 ? 0 : *std::max_element(class_size.begin(), class_size.end());
  const SccResult scc = strongly_connected_components(csr);
  EXPECT_EQ(scc.count, oracle_count);
  EXPECT_EQ(scc.largest, oracle_largest);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w = v + 1; w < n; ++w) {
      ASSERT_EQ(scc.component[v] == scc.component[w], oracle[v] == oracle[w])
          << "nodes " << v << ", " << w;
    }
  }
  EXPECT_EQ(largest_scc_fraction(csr),
            static_cast<double>(oracle_largest) / static_cast<double>(n));

  // Undirected measures against the UGraph closure. Both label components
  // in first-seen node order, and both sort the closure rows and sum the
  // local coefficients in node order: exact equality, not an approximation.
  UGraph closure(n);
  for (const auto& [v, w] : edges) {
    if (v != w) closure.add_edge(v, w);
  }
  const ComponentsResult wc_ref = connected_components(closure);
  const ComponentsResult wc_csr = weak_components(csr);
  EXPECT_EQ(wc_csr.count, wc_ref.count);
  EXPECT_EQ(wc_csr.largest, wc_ref.largest);
  EXPECT_EQ(wc_csr.component, wc_ref.component);

  EXPECT_EQ(avg_clustering_coefficient(csr), avg_clustering_coefficient(closure));
}

TEST(StaticGraph, EmptyAndSingleton) {
  const StaticGraph empty = graph_from_edges(0, {});
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);
  EXPECT_EQ(largest_scc_fraction(empty), 0.0);

  const StaticGraph one = graph_from_edges(1, {});
  EXPECT_EQ(one.num_nodes(), 1u);
  EXPECT_EQ(one.out(0).size(), 0u);
  EXPECT_EQ(weak_components(one).count, 1u);
}

TEST(StaticGraph, BuilderDropsSelfLoopsDuplicatesAndSlack) {
  StaticGraph::Builder b(3);
  b.set_degree(0, 6);  // deliberate over-reservation
  b.set_degree(1, 2);
  b.set_degree(2, 1);
  b.finish_degrees();
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  b.add_edge(0, 0);  // self-loop: ignored
  b.add_edge(0, 2);  // duplicate: deduped
  b.add_edge(1, 0);
  b.add_edge(2, 1);
  b.dedupe_rows(0, 3);
  const StaticGraph g = b.build();
  EXPECT_EQ(g.num_edges(), 4u);
  ASSERT_EQ(g.out(0).size(), 2u);
  EXPECT_EQ(g.out(0)[0], 1u);  // sorted
  EXPECT_EQ(g.out(0)[1], 2u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_degree(2), 1u);
}

TEST(StaticGraph, BuilderChunkedDedupeMatchesWholeGraphDedupe) {
  // dedupe_rows over disjoint partitions (how the overlay collection
  // calls it from worker chunks) must equal one whole-range call.
  constexpr std::size_t n = 97;
  Rng rng(7);
  const EdgeList raw = random_view_edges(n, 5, rng);
  const StaticGraph whole = graph_from_edges(n, raw);

  StaticGraph::Builder b(n);
  for (NodeId v = 0; v < n; ++v) b.set_degree(v, 5);
  b.finish_degrees();
  for (const auto& [v, w] : raw) b.add_edge(v, w);
  for (NodeId lo = 0; lo < n; lo += 10) {
    b.dedupe_rows(lo, std::min<NodeId>(lo + 10, static_cast<NodeId>(n)));
  }
  const StaticGraph chunked = b.build();
  ASSERT_EQ(chunked.num_edges(), whole.num_edges());
  for (NodeId v = 0; v < whole.num_nodes(); ++v) {
    const auto a = whole.out(v);
    const auto c = chunked.out(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), c.begin(), c.end()));
  }
}

TEST(StaticGraphProperty, MatchesReferencesOnRandomViewOverlays) {
  Rng rng(20260731);
  for (const std::size_t n : {2u, 17u, 64u, 300u}) {
    for (const std::size_t k : {1u, 4u, 12u}) {
      expect_correct_analysis(n, random_view_edges(n, k, rng));
    }
  }
}

TEST(StaticGraphProperty, MatchesReferencesOnErdosRenyi) {
  Rng rng(42);
  for (const double p : {0.01, 0.05, 0.2}) {
    expect_correct_analysis(120, directed_copy(erdos_renyi(120, p, rng)));
  }
}

TEST(StaticGraphProperty, MatchesReferencesOnWattsStrogatzAndBarabasiAlbert) {
  Rng rng(99);
  expect_correct_analysis(150, directed_copy(watts_strogatz(150, 6, 0.1, rng)));
  expect_correct_analysis(150, directed_copy(barabasi_albert(150, 3, rng)));
}

TEST(StaticGraphProperty, MatchesReferencesOnPlantedPartition) {
  Rng rng(5);
  std::vector<int> membership;
  const std::vector<std::size_t> sizes{40, 35, 25};
  expect_correct_analysis(
      100, directed_copy(planted_partition(sizes, 0.3, 0.02, rng, membership)));
}

}  // namespace
}  // namespace whatsup::graph
