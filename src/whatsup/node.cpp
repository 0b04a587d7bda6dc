#include "whatsup/node.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"

namespace whatsup {

namespace {

// Failure-detection telemetry: retry-exhaustion suspicions and the view
// evictions hygiene confirms from them (src/obs/ registry contract — no
// RNG, no ordering effects).
struct HygieneMetrics {
  obs::MetricId suspicions = obs::counter("relia.suspicions");
  obs::MetricId evictions = obs::counter("relia.evictions");

  static const HygieneMetrics& get() {
    static const HygieneMetrics m;
    return m;
  }
};

}  // namespace

WhatsUpAgent::WhatsUpAgent(NodeId self, WhatsUpConfig config, const sim::Opinions& opinions)
    : self_(self),
      config_(config),
      opinions_(&opinions),
      rps_(self, static_cast<std::size_t>(config.params.rps_view_size),
           config.params.rps_period),
      wup_(self, static_cast<std::size_t>(config.params.effective_wup_view_size()),
           config.metric, config.params.wup_period) {
  if (config_.reliability.enabled || config_.hygiene.enabled() ||
      config_.obfuscation.enabled()) {
    opt_in_ = std::make_unique<OptInState>(config_);
  }
}

const sim::RetransmitQueue& WhatsUpAgent::retransmit_queue() const {
  static const sim::RetransmitQueue kEmpty{};
  return opt_in_ != nullptr ? opt_in_->retx : kEmpty;
}

const gossip::ViewHygiene& WhatsUpAgent::hygiene() const {
  static const gossip::ViewHygiene kEmpty{};
  return opt_in_ != nullptr ? opt_in_->hygiene : kEmpty;
}

void WhatsUpAgent::bootstrap_rps(std::vector<net::Descriptor> seed) {
  rps_.bootstrap(std::move(seed));
}

void WhatsUpAgent::bootstrap_wup(std::vector<net::Descriptor> seed) {
  wup_.bootstrap(std::move(seed));
}

const Profile& WhatsUpAgent::disclosed(Cycle now) {
  if (!config_.obfuscation.enabled()) return profile_;
  // Obfuscation on implies the opt-in state exists.
  return opt_in_->obfuscation_cache.get(profile_, config_.obfuscation, self_, now);
}

void WhatsUpAgent::pump_retransmissions(sim::Context& ctx) {
  sim::RetransmitQueue& retx = opt_in_->retx;
  if (retx.pending() == 0) return;
  Rng rel = ctx.reliability_rng();
  std::vector<NodeId> expired;
  for (sim::RetransmitQueue::Due& due : retx.collect_due(ctx.now(), rel, &expired)) {
    ctx.send(due.to, net::MsgType::kNews, std::move(due.news));
  }
  // Retry exhaustion is the failure signal feeding view hygiene: enough of
  // them evicts the peer from BOTH views and drops its remaining entries.
  if (!expired.empty()) {
    obs::add(HygieneMetrics::get().suspicions, expired.size());
  }
  for (const NodeId failed : expired) {
    if (opt_in_->hygiene.report_failure(failed)) {
      rps_.view().remove(failed);
      wup_.view().remove(failed);
      retx.drop_target(failed);
      obs::add(HygieneMetrics::get().evictions);
    }
  }
}

void WhatsUpAgent::on_cycle(sim::Context& ctx) {
  // Profile window (§II-E): drop opinions on items older than the window.
  profile_.purge_older_than(ctx.now() - config_.params.profile_window);
  if (hygiene_on()) {
    opt_in_->hygiene.evict_stale(rps_.view(), ctx.now());
    opt_in_->hygiene.evict_stale(wup_.view(), ctx.now());
  }
  if (config_.reliability.enabled) pump_retransmissions(ctx);
  const Profile& outgoing = disclosed(ctx.now());
  rps_.step(ctx, outgoing, snapshots_);
  wup_.step(ctx, rps_.view(), outgoing, snapshots_);
}

void WhatsUpAgent::on_message(sim::Context& ctx, const net::Message& message) {
  // Any message is evidence of life for its sender.
  if (hygiene_on() && message.from != kNoNode && message.from != self_) {
    opt_in_->hygiene.absolve(message.from);
  }
  switch (message.type) {
    case net::MsgType::kRpsRequest:
      rps_.on_request(ctx, message.view(), disclosed(ctx.now()), snapshots_);
      break;
    case net::MsgType::kRpsReply:
      rps_.on_reply(ctx, message.view());
      break;
    case net::MsgType::kWupRequest:
      wup_.on_request(ctx, message.view(), profile_, rps_.view(), disclosed(ctx.now()),
                      snapshots_);
      break;
    case net::MsgType::kWupReply:
      wup_.on_reply(ctx, message.view(), profile_, rps_.view());
      break;
    case net::MsgType::kNews:
      handle_news(ctx, message.from, message.news());
      break;
    case net::MsgType::kAck:
      // An ack can reach a node that never tracks sends (mixed configs);
      // with no reliability state it is a no-op, exactly as the empty
      // queue made it before the state went lazy.
      if (opt_in_ != nullptr) opt_in_->retx.ack(message.from, message.ack().item);
      break;
    case net::MsgType::kRejoinRequest:
      handle_rejoin_request(ctx, message.view());
      break;
    case net::MsgType::kRejoinReply: {
      // Rebuild the RPS view from the contact's descriptor plus its view;
      // WUP re-clusters from there over the following cycles.
      std::vector<net::Descriptor> seeds = message.view().view;
      seeds.push_back(message.view().sender);
      rps_.bootstrap(std::move(seeds));
      break;
    }
  }
}

void WhatsUpAgent::handle_rejoin_request(sim::Context& ctx,
                                         const net::ViewPayload& payload) {
  if (payload.sender.node == kNoNode || payload.sender.node == self_) return;
  // Hand the joiner our full RPS view plus our own fresh descriptor
  // (rejoin is a cold path: an uncached make_descriptor encode is fine).
  net::ViewPayload reply;
  reply.sender = net::make_descriptor(self_, ctx.now(), disclosed(ctx.now()));
  reply.view = rps_.view().entries();
  ctx.send(payload.sender.node, net::MsgType::kRejoinReply, std::move(reply));
  // Absorb the joiner so gossip re-spreads its descriptor quickly.
  std::vector<net::Descriptor> joiner;
  joiner.push_back(payload.sender);
  rps_.bootstrap(std::move(joiner));
}

void WhatsUpAgent::on_recover(sim::Context& ctx) {
  // Views, pending retransmissions and suspicion counts are soft state and
  // died with the process; the profile and SIR set model durable storage.
  rps_.view().clear();
  wup_.view().clear();
  if (opt_in_ != nullptr) {
    opt_in_->retx.clear();
    opt_in_->hygiene.clear();
  }
  const NodeId contact = ctx.random_active_peer();
  if (contact == kNoNode) return;
  net::ViewPayload hello;
  hello.sender = net::make_descriptor(self_, ctx.now(), disclosed(ctx.now()));
  ctx.send(contact, net::MsgType::kRejoinRequest, std::move(hello));
}

void WhatsUpAgent::handle_news(sim::Context& ctx, NodeId from, net::NewsPayload news) {
  // Ack EVERY receipt, including repeats: a lost ack provokes a
  // retransmission, and re-acking the repeat is what recovers it.
  if (config_.reliability.enabled && from != kNoNode && from != self_) {
    ctx.send(from, net::MsgType::kAck, net::AckPayload{news.id, news.hops});
  }
  // SIR: an already-received item is dropped (§III) — but counted, so the
  // redundancy ratio (duplicate vs unique deliveries) is observable.
  if (!seen_.insert(news.id)) {
    if (sim::DisseminationObserver* obs = ctx.observer(); obs != nullptr) {
      obs->on_duplicate(self_, news.index);
    }
    return;
  }

  const bool liked = opinions_->likes(self_, news.index);
  if (sim::DisseminationObserver* obs = ctx.observer(); obs != nullptr) {
    obs->on_delivery(self_, news.index, news.hops, news.via_dislike, news.dislikes);
    obs->on_opinion(self_, news.index, liked);
  }

  if (liked) {
    // Alg. 1 lines 2-5: fold the user profile into the item profile, then
    // record the like (keyed by the ITEM's creation timestamp, so the
    // profile window measures item age).
    news.item_profile.fold_profile(profile_);
    profile_.set(news.id, news.created, 1.0);
  } else {
    profile_.set(news.id, news.created, 0.0);  // line 7
  }
  // Alg. 1 lines 8-10: purge stale entries from the item profile.
  news.item_profile.purge_older_than(ctx.now() - config_.params.profile_window);
  forward(ctx, liked, std::move(news));
}

void WhatsUpAgent::forward(sim::Context& ctx, bool liked, net::NewsPayload news) {
  const beep::BeepConfig beep_config = config_.beep_config();
  const beep::ForwardPlan plan =
      beep::plan_forward(ctx.rng(), beep_config, liked, news, wup_.view(), rps_.view());
  if (sim::DisseminationObserver* obs = ctx.observer(); obs != nullptr) {
    obs->on_forward(self_, news.index, news.hops, liked, plan.targets.size());
  }
  if (plan.targets.empty()) return;
  news.hops += 1;
  news.via_dislike = !liked;
  for (NodeId target : plan.targets) {
    ctx.send(target, net::MsgType::kNews, news);
    if (config_.reliability.enabled) opt_in_->retx.track(ctx.now(), target, news);
  }
}

void WhatsUpAgent::publish(sim::Context& ctx, ItemIdx index, ItemId id) {
  if (!seen_.insert(id)) return;
  // generateNewsItem (Alg. 1 lines 12-17): like the item, then initialise
  // its item profile from the full user profile.
  profile_.set(id, ctx.now(), 1.0);
  net::NewsPayload news;
  news.id = id;
  news.index = index;
  news.created = ctx.now();
  news.origin = self_;
  news.item_profile.fold_profile(profile_);
  forward(ctx, /*liked=*/true, std::move(news));
}

void WhatsUpAgent::cold_start_from(sim::Context& ctx, const WhatsUpAgent& contact) {
  // Inherit both views (§II-D).
  rps_.view().clear();
  rps_.bootstrap(contact.rps_view().entries());
  wup_.view().clear();
  wup_.bootstrap(contact.wup_view().entries());
  profile_.clear();
  seen_.clear();

  // Rate the most popular items observed in the inherited RPS view: count
  // how many view profiles LIKE each item, keep the top-k.
  std::unordered_map<ItemId, std::pair<int, Cycle>> popularity;
  for (const net::Descriptor& d : rps_.view().entries()) {
    const Profile p = d.profile_ref();
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p.scores()[i] > 0.5) {
        auto& [count, ts] = popularity[p.ids()[i]];
        ++count;
        ts = std::max(ts, p.timestamps()[i]);
      }
    }
  }
  std::vector<std::pair<int, ItemId>> ranked;
  ranked.reserve(popularity.size());
  for (const auto& [id, info] : popularity) ranked.emplace_back(info.first, id);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  const auto k = static_cast<std::size_t>(config_.params.cold_start_items);
  for (std::size_t i = 0; i < ranked.size() && i < k; ++i) {
    const ItemId item = ranked[i].second;
    const Cycle ts = popularity[item].second;
    profile_.set(item, std::max(ts, ctx.now() - config_.params.profile_window + 1), 1.0);
    seen_.insert(item);
  }
}

}  // namespace whatsup
