#include "gossip/view.hpp"

#include <algorithm>
#include <unordered_map>

namespace whatsup::gossip {

View::View(std::size_t capacity) : capacity_(capacity) {}

bool View::contains(NodeId node) const { return find(node) != nullptr; }

const net::Descriptor* View::find(NodeId node) const {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [node](const net::Descriptor& d) { return d.node == node; });
  return it == entries_.end() ? nullptr : &*it;
}

const net::Descriptor* View::oldest() const {
  // Ties broken by smaller node id: with bare timestamp comparison the
  // winner depended on insertion order, which eviction (gossip/hygiene.hpp)
  // would have turned into a determinism hazard.
  const auto it = std::min_element(entries_.begin(), entries_.end(),
                                   [](const net::Descriptor& a, const net::Descriptor& b) {
                                     return a.timestamp() != b.timestamp()
                                                ? a.timestamp() < b.timestamp()
                                                : a.node < b.node;
                                   });
  return it == entries_.end() ? nullptr : &*it;
}

void View::insert_or_refresh(net::Descriptor descriptor) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&descriptor](const net::Descriptor& d) { return d.node == descriptor.node; });
  if (it != entries_.end()) {
    if (descriptor.timestamp() >= it->timestamp()) {
      // A refresh may legitimately carry no snapshot (bootstrap entries
      // ship bare addresses). Keep the newer timestamp but never downgrade
      // an entry that already has profile contents to a null snapshot.
      if (!descriptor.has_profile() && it->has_profile()) {
        descriptor = net::Descriptor{descriptor.node, descriptor.timestamp(),
                                     it->profile()};
      }
      *it = std::move(descriptor);
    }
    return;
  }
  entries_.push_back(std::move(descriptor));
}

void View::remove(NodeId node) {
  std::erase_if(entries_, [node](const net::Descriptor& d) { return d.node == node; });
}

std::vector<net::Descriptor> View::random_subset(Rng& rng, std::size_t k) const {
  const auto picks = rng.sample_indices(entries_.size(), k);
  std::vector<net::Descriptor> out;
  out.reserve(picks.size());
  for (std::size_t i : picks) out.push_back(entries_[i]);
  return out;
}

std::vector<NodeId> View::random_members(Rng& rng, std::size_t k) const {
  const auto picks = rng.sample_indices(entries_.size(), k);
  std::vector<NodeId> out;
  out.reserve(picks.size());
  for (std::size_t i : picks) out.push_back(entries_[i].node);
  return out;
}

NodeId View::random_member(Rng& rng) const {
  if (entries_.empty()) return kNoNode;
  return entries_[rng.index(entries_.size())].node;
}

std::vector<NodeId> View::members() const {
  std::vector<NodeId> ids;
  ids.reserve(entries_.size());
  for (const net::Descriptor& d : entries_) ids.push_back(d.node);
  return ids;
}

void View::assign_random(std::vector<net::Descriptor> candidates, Rng& rng) {
  rng.shuffle(candidates);
  if (candidates.size() > capacity_) candidates.resize(capacity_);
  entries_ = std::move(candidates);
}

void View::assign_closest(std::vector<net::Descriptor> candidates, const Profile& own_profile,
                          Metric metric, Rng& rng) {
  // Random shuffle before selection randomizes tie-breaking, which matters
  // at cold start when every similarity is 0.
  rng.shuffle(candidates);
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scored.emplace_back(similarity(metric, own_profile, candidates[i].profile_view()), i);
  }
  // (descending score, ascending shuffled position) is a strict total order
  // — exactly the ranking the seed's shuffle + stable_sort produced — so
  // top-K selection keeps the identical member sequence while only paying
  // O(n + K log K) instead of O(n log n).
  const auto ranks_before = [](const std::pair<double, std::size_t>& a,
                               const std::pair<double, std::size_t>& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  };
  if (scored.size() > capacity_) {
    std::nth_element(scored.begin(),
                     scored.begin() + static_cast<std::ptrdiff_t>(capacity_),
                     scored.end(), ranks_before);
    scored.resize(capacity_);
  }
  std::sort(scored.begin(), scored.end(), ranks_before);
  std::vector<net::Descriptor> kept;
  kept.reserve(scored.size());
  for (const auto& ranked : scored) {
    kept.push_back(std::move(candidates[ranked.second]));
  }
  entries_ = std::move(kept);
}

std::vector<net::Descriptor> merge_candidates(std::span<const net::Descriptor> base,
                                              std::span<const net::Descriptor> incoming,
                                              NodeId self) {
  std::unordered_map<NodeId, net::Descriptor> best;
  best.reserve(base.size() + incoming.size());
  auto absorb = [&](const net::Descriptor& d) {
    if (d.node == self || d.node == kNoNode) return;
    const auto it = best.find(d.node);
    if (it == best.end() || d.timestamp() > it->second.timestamp()) best[d.node] = d;
  };
  for (const net::Descriptor& d : base) absorb(d);
  for (const net::Descriptor& d : incoming) absorb(d);
  std::vector<net::Descriptor> merged;
  merged.reserve(best.size());
  for (auto& [node, d] : best) {
    (void)node;
    merged.push_back(std::move(d));
  }
  return merged;
}

}  // namespace whatsup::gossip
