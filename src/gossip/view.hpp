// Bounded views of node descriptors — the per-protocol neighbor tables of
// §II. Each entry holds a peer's id, the timestamp at which the peer
// generated the entry, and a snapshot of its profile. Both RPS and WUP
// periodically contact the entry with the *oldest* timestamp ([4]'s
// tail-based peer selection) and refresh views from the union of exchanged
// entries.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "net/message.hpp"
#include "profile/similarity.hpp"

namespace whatsup::gossip {

class View {
 public:
  explicit View(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<net::Descriptor>& entries() const { return entries_; }
  bool contains(NodeId node) const;
  const net::Descriptor* find(NodeId node) const;

  // Entry with the smallest timestamp, ties broken by smaller node id
  // (deterministic under any insertion order); nullptr when empty.
  const net::Descriptor* oldest() const;

  // Inserts, or refreshes in place if the node is present and the new
  // descriptor is fresher. A fresher descriptor with a null profile
  // snapshot refreshes the timestamp but keeps the previously known
  // snapshot (never downgrades contents to null). May grow beyond capacity
  // (merge buffers shrink views via the assign_* policies).
  void insert_or_refresh(net::Descriptor descriptor);
  void remove(NodeId node);
  void clear() { entries_.clear(); }

  // k entries picked uniformly without replacement.
  std::vector<net::Descriptor> random_subset(Rng& rng, std::size_t k) const;
  // Same sampling, ids only — skips the descriptor (and snapshot pointer)
  // copies when the caller just needs gossip targets. Consumes the same
  // randomness as random_subset, picking the same members.
  std::vector<NodeId> random_members(Rng& rng, std::size_t k) const;
  // Uniformly random member id; kNoNode when empty.
  NodeId random_member(Rng& rng) const;
  std::vector<NodeId> members() const;

  // Replace contents with a uniform random subset of `candidates` of at
  // most `capacity()` entries (RPS merge policy).
  void assign_random(std::vector<net::Descriptor> candidates, Rng& rng);

  // Replace contents with the `capacity()` candidates most similar to
  // `own_profile` under `metric`; ties broken uniformly at random
  // (WUP merge policy). Selection is top-K (nth_element + bounded sort)
  // rather than a full sort, with the same deterministic shuffle-based
  // tie-breaking as a stable sort by descending score.
  void assign_closest(std::vector<net::Descriptor> candidates, const Profile& own_profile,
                      Metric metric, Rng& rng);

 private:
  std::size_t capacity_;
  std::vector<net::Descriptor> entries_;
};

// Union of `base` and `incoming`, excluding `self`, deduplicated by node id
// keeping the freshest descriptor. The building block of both merge paths.
std::vector<net::Descriptor> merge_candidates(std::span<const net::Descriptor> base,
                                              std::span<const net::Descriptor> incoming,
                                              NodeId self);

}  // namespace whatsup::gossip
