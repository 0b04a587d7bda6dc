#include "gossip/rps.hpp"

namespace whatsup::gossip {

Rps::Rps(NodeId self, std::size_t view_size, Cycle period)
    : self_(self), view_(view_size), period_(period) {}

void Rps::bootstrap(std::vector<net::Descriptor> seed) {
  for (net::Descriptor& d : seed) {
    if (d.node == self_) continue;
    view_.insert_or_refresh(std::move(d));
  }
}

net::ViewPayload Rps::make_payload(sim::Context& ctx, const Profile& own_profile,
                                   ProfileSnapshotCache& snapshots) {
  net::ViewPayload payload;
  payload.sender = net::Descriptor{self_, snapshots.stamp(ctx.now(), own_profile)};
  // Half of the view, as is typical for peer-sampling exchanges (§II).
  payload.view = view_.random_subset(ctx.rng(), (view_.size() + 1) / 2);
  return payload;
}

void Rps::step(sim::Context& ctx, const Profile& own_profile,
               ProfileSnapshotCache& snapshots) {
  if (period_ > 1 && ctx.now() % period_ != 0) return;
  const net::Descriptor* target = view_.oldest();
  if (target == nullptr) return;
  const NodeId to = target->node;
  ctx.send(to, net::MsgType::kRpsRequest, make_payload(ctx, own_profile, snapshots));
}

void Rps::on_request(sim::Context& ctx, const net::ViewPayload& payload,
                     const Profile& own_profile, ProfileSnapshotCache& snapshots) {
  ctx.send(payload.sender.node, net::MsgType::kRpsReply,
           make_payload(ctx, own_profile, snapshots));
  merge(ctx, payload);
}

void Rps::on_reply(sim::Context& ctx, const net::ViewPayload& payload) {
  merge(ctx, payload);
}

void Rps::merge(sim::Context& ctx, const net::ViewPayload& payload) {
  std::vector<net::Descriptor> incoming = payload.view;
  incoming.push_back(payload.sender);
  auto merged = merge_candidates(view_.entries(), incoming, self_);
  view_.assign_random(std::move(merged), ctx.rng());
}

}  // namespace whatsup::gossip
