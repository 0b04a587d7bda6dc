// Random peer sampling (paper §II, following Jelasity et al., ACM TOCS'07).
//
// Maintains a continuously changing random overlay: each period the node
// contacts the view entry with the oldest timestamp, sending its own fresh
// descriptor plus half of its view; initiator and responder both keep a
// uniform random sample of the union of their view and the received one.
#pragma once

#include "gossip/view.hpp"
#include "profile/snapshot.hpp"
#include "sim/engine.hpp"

namespace whatsup::gossip {

class Rps {
 public:
  Rps(NodeId self, std::size_t view_size, Cycle period);

  const View& view() const { return view_; }
  View& view() { return view_; }
  Cycle period() const { return period_; }

  // Seeds the view (bootstrap server stand-in).
  void bootstrap(std::vector<net::Descriptor> seed);

  // Active thread: run once per cycle; gossips every `period` cycles.
  // `own_profile` is the profile DISCLOSED in the gossiped descriptor —
  // privacy-conscious nodes pass an obfuscated snapshot (§VII).
  // `snapshots` is the node's stamp cache, shared with its other gossip
  // protocols; it is stamped only when a message actually goes out.
  void step(sim::Context& ctx, const Profile& own_profile,
            ProfileSnapshotCache& snapshots);

  // Passive thread.
  void on_request(sim::Context& ctx, const net::ViewPayload& payload,
                  const Profile& own_profile, ProfileSnapshotCache& snapshots);
  void on_reply(sim::Context& ctx, const net::ViewPayload& payload);

 private:
  net::ViewPayload make_payload(sim::Context& ctx, const Profile& own_profile,
                                ProfileSnapshotCache& snapshots);
  void merge(sim::Context& ctx, const net::ViewPayload& payload);

  NodeId self_;
  View view_;
  Cycle period_;
};

}  // namespace whatsup::gossip
