// Shared test helper: builds a CSR StaticGraph from an edge list through
// the public two-pass StaticGraph::Builder (self-loops dropped, rows
// sorted and deduplicated).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/static_graph.hpp"

namespace whatsup::graph::testing {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

inline StaticGraph graph_from_edges(std::size_t n, const EdgeList& edges) {
  std::vector<std::size_t> degree(n, 0);
  for (const auto& [v, w] : edges) ++degree[v];
  StaticGraph::Builder b(n);
  for (NodeId v = 0; v < n; ++v) b.set_degree(v, degree[v]);
  b.finish_degrees();
  for (const auto& [v, w] : edges) b.add_edge(v, w);
  b.dedupe_rows(0, static_cast<NodeId>(n));
  return b.build();
}

}  // namespace whatsup::graph::testing
