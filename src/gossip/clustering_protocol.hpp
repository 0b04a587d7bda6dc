// The WUP clustering protocol (paper §II, in the style of Vicinity
// [Voulgaris & van Steen, Euro-Par'05]).
//
// Maintains the implicit social network: a view of the `WUPvs` peers whose
// profiles are most similar to the node's own, under a pluggable metric
// (the paper's asymmetric WUP metric, or cosine for the *-Cos variants).
// Each period the node contacts its oldest entry and sends its profile with
// its ENTIRE view; receiver (and initiator, on the symmetric reply) keeps
// the closest entries from the union of its view, the received view, and
// its current RPS view (the RPS stream feeds fresh random candidates).
#pragma once

#include "gossip/view.hpp"
#include "profile/snapshot.hpp"
#include "sim/engine.hpp"

namespace whatsup::gossip {

class ClusteringProtocol {
 public:
  ClusteringProtocol(NodeId self, std::size_t view_size, Metric metric, Cycle period);

  const View& view() const { return view_; }
  View& view() { return view_; }
  Metric metric() const { return metric_; }

  void bootstrap(std::vector<net::Descriptor> seed);

  // Active thread; `rps_view` provides the fallback gossip target while the
  // WUP view is still empty. `disclosed` is the profile shipped in outgoing
  // descriptors: the obfuscated snapshot under profile obfuscation (§VII),
  // otherwise the node's true profile. `snapshots` is the node's stamp
  // cache, shared with its RPS layer (see Rps::step).
  void step(sim::Context& ctx, const View& rps_view, const Profile& disclosed,
            ProfileSnapshotCache& snapshots);

  // Passive thread and reply: `own_profile` drives the similarity-based
  // view selection (always the node's TRUE profile); `rps_view` feeds
  // fresh random candidates into the merge.
  void on_request(sim::Context& ctx, const net::ViewPayload& payload,
                  const Profile& own_profile, const View& rps_view,
                  const Profile& disclosed, ProfileSnapshotCache& snapshots);
  void on_reply(sim::Context& ctx, const net::ViewPayload& payload,
                const Profile& own_profile, const View& rps_view);

  // Average similarity between `own_profile` and the current view members
  // (the convergence measure of Fig. 7a/7b).
  double avg_similarity(const Profile& own_profile) const;

 private:
  // Takes the context to stamp the send cycle.
  net::ViewPayload make_payload(sim::Context& ctx, const Profile& disclosed,
                                ProfileSnapshotCache& snapshots) const;
  void merge(sim::Context& ctx, const net::ViewPayload& payload,
             const Profile& own_profile, const View& rps_view);

  NodeId self_;
  View view_;
  Metric metric_;
  Cycle period_;
  // View merges and convergence probes score every descriptor afresh, in
  // place on its snapshot record: a score memo hit ~11% of lookups and
  // cost more than it saved (docs/perf.md, "The similarity memo, removed").
};

}  // namespace whatsup::gossip
