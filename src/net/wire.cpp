#include "net/wire.hpp"

#include <cstring>
#include <utility>

#include "common/small_vector.hpp"
#include "profile/compact.hpp"

namespace whatsup::net {

namespace {

std::uint32_t fnv1a32(std::span<const std::uint8_t> bytes) {
  std::uint32_t h = 2166136261u;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

void put_u32le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Shared by both encode_profile overloads: `scores` reads the lanes of a
// decoded Profile or a snapshot record's score mask alike.
void encode_entries(std::vector<std::uint8_t>& out, const ProfileView& scores,
                    std::span<const Cycle> timestamps) {
  const std::size_t n = scores.size;
  wire_varint(out, n);
  if (n == 0) return;
  ItemId prev_id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    wire_varint(out, scores.ids[i] - prev_id);
    prev_id = scores.ids[i];
  }
  std::int64_t prev_ts = 0;
  for (Cycle ts : timestamps) {
    wire_zigzag(out, static_cast<std::int64_t>(ts) - prev_ts);
    prev_ts = ts;
  }
  bool binary = true;
  for (std::size_t i = 0; i < n && binary; ++i) {
    const double s = scores.score(i);
    binary = s == 0.0 || s == 1.0;
  }
  wire_u8(out, binary ? 1 : 0);
  if (binary) {
    std::uint8_t bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (scores.score(i) == 1.0) bits |= static_cast<std::uint8_t>(1u << (i % 8));
      if (i % 8 == 7) {
        out.push_back(bits);
        bits = 0;
      }
    }
    if (n % 8 != 0) out.push_back(bits);
  } else {
    for (std::size_t i = 0; i < n; ++i) wire_f64(out, scores.score(i));
  }
}

}  // namespace

// ---- Profile contents ----
//
// Layout: varint count; then (count > 0): varint id deltas (strictly
// ascending ids, first delta is the first id), zigzag timestamp deltas,
// flags u8, and either a 1-bit-per-entry like mask (kBinaryScores) or
// count raw doubles. Mirrors CompactProfile's record layout so binary
// user profiles cost ~2-3 bytes per entry on the wire.

void encode_profile(std::vector<std::uint8_t>& out, const Profile& profile) {
  encode_entries(out, profile, profile.timestamps());
}

void encode_profile(std::vector<std::uint8_t>& out, const CompactProfile& record) {
  SmallVector<Cycle, 16> timestamps;
  timestamps.resize(record.size());
  record.timestamps_into(timestamps.data());
  encode_entries(out, record.view(), {timestamps.data(), timestamps.size()});
}

bool decode_profile(WireReader& r, Profile& out) {
  out.clear();
  const std::uint64_t count = r.read_varint();
  if (!r.ok() || count > kMaxWireProfileEntries) return false;
  if (count == 0) return r.ok();
  SmallVector<ItemId, 16> ids;
  ids.reserve(count);
  ItemId prev_id = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t delta = r.read_varint();
    if (!r.ok() || (i > 0 && delta == 0)) return false;  // ids must ascend
    prev_id += delta;
    ids.push_back(prev_id);
  }
  SmallVector<Cycle, 16> timestamps;
  timestamps.reserve(count);
  std::int64_t prev_ts = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    prev_ts += r.read_zigzag();
    if (prev_ts < INT32_MIN || prev_ts > INT32_MAX) return false;
    timestamps.push_back(static_cast<Cycle>(prev_ts));
  }
  const std::uint8_t flags = r.read_u8();
  if (!r.ok() || flags > 1) return false;
  if (flags == 1) {
    std::uint8_t bits = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (i % 8 == 0) bits = r.read_u8();
      if (!r.ok()) return false;
      out.set(ids[i], timestamps[i], (bits >> (i % 8)) & 1 ? 1.0 : 0.0);
    }
  } else {
    for (std::uint64_t i = 0; i < count; ++i) {
      const double s = r.read_f64();
      if (!r.ok()) return false;
      out.set(ids[i], timestamps[i], s);
    }
  }
  return r.ok();
}

// ---- Descriptor ----

void encode_descriptor(std::vector<std::uint8_t>& out, const Descriptor& d) {
  wire_varint(out, d.node);
  wire_zigzag(out, d.timestamp());
  if (!d.has_profile()) {
    wire_u8(out, 0);  // bootstrap descriptor: address only, no snapshot
    return;
  }
  wire_u8(out, 1);
  encode_profile(out, *d.profile().record());
}

bool decode_descriptor(WireReader& r, Descriptor& out) {
  const std::uint64_t node = r.read_varint();
  const std::int64_t timestamp = r.read_zigzag();
  const std::uint8_t flag = r.read_u8();
  if (!r.ok() || node > UINT32_MAX || timestamp < INT32_MIN ||
      timestamp > INT32_MAX || flag > 1) {
    return false;
  }
  const NodeId n = static_cast<NodeId>(node);
  const Cycle ts = static_cast<Cycle>(timestamp);
  if (flag == 0) {
    out = Descriptor{n, ts, nullptr};
    return true;
  }
  Profile p;
  if (!decode_profile(r, p)) return false;
  // Re-intern locally BY CONTENT, never by the sender's process-local
  // version stamps: identical snapshot bytes arriving through different
  // sockets collapse onto one arena record.
  out = Descriptor{n, ts,
                   p.empty() ? empty_profile_handle()
                             : SnapshotArena::instance().intern_by_content(p)};
  return true;
}

// ---- Payloads ----

namespace {

void encode_view_payload(std::vector<std::uint8_t>& out, const ViewPayload& v) {
  encode_descriptor(out, v.sender);
  wire_varint(out, v.view.size());
  for (const Descriptor& d : v.view) encode_descriptor(out, d);
}

bool decode_view_payload(WireReader& r, ViewPayload& out) {
  if (!decode_descriptor(r, out.sender)) return false;
  const std::uint64_t count = r.read_varint();
  if (!r.ok() || count > kMaxWireViewEntries) return false;
  out.view.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!decode_descriptor(r, out.view[i])) return false;
  }
  return true;
}

void encode_news_payload(std::vector<std::uint8_t>& out, const NewsPayload& n) {
  wire_varint(out, n.id);
  wire_varint(out, n.index);
  wire_zigzag(out, n.created);
  wire_varint(out, n.origin);
  wire_zigzag(out, n.dislikes);
  wire_zigzag(out, n.hops);
  wire_u8(out, n.via_dislike ? 1 : 0);
  encode_profile(out, n.item_profile.get());
}

bool decode_news_payload(WireReader& r, NewsPayload& out) {
  out.id = r.read_varint();
  const std::uint64_t index = r.read_varint();
  const std::int64_t created = r.read_zigzag();
  const std::uint64_t origin = r.read_varint();
  const std::int64_t dislikes = r.read_zigzag();
  const std::int64_t hops = r.read_zigzag();
  const std::uint8_t via = r.read_u8();
  if (!r.ok() || index > UINT32_MAX || created < INT32_MIN ||
      created > INT32_MAX || origin > UINT32_MAX || dislikes < INT8_MIN ||
      dislikes > INT8_MAX || hops < INT16_MIN || hops > INT16_MAX ||
      via > 1) {
    return false;
  }
  out.index = static_cast<ItemIdx>(index);
  out.created = static_cast<Cycle>(created);
  out.origin = static_cast<NodeId>(origin);
  out.dislikes = static_cast<std::int8_t>(dislikes);
  out.hops = static_cast<std::int16_t>(hops);
  out.via_dislike = via != 0;
  Profile p;
  if (!decode_profile(r, p)) return false;
  out.item_profile.clear();
  if (!p.empty()) out.item_profile = std::move(p);
  return true;
}

void encode_ack_payload(std::vector<std::uint8_t>& out, const AckPayload& a) {
  wire_varint(out, a.item);
  wire_zigzag(out, a.hop);
}

bool decode_ack_payload(WireReader& r, AckPayload& out) {
  out.item = r.read_varint();
  const std::int64_t hop = r.read_zigzag();
  if (!r.ok() || hop < INT32_MIN || hop > INT32_MAX) return false;
  out.hop = static_cast<int>(hop);
  return true;
}

}  // namespace

// ---- Message ----

void encode_message(std::vector<std::uint8_t>& out, const Message& m) {
  wire_varint(out, m.from);
  wire_varint(out, m.to);
  wire_zigzag(out, m.sent_at);
  wire_varint(out, m.seq);
  wire_u8(out, static_cast<std::uint8_t>(m.type));
  wire_u8(out, static_cast<std::uint8_t>(m.payload.index()));
  switch (m.payload.index()) {
    case 0:
      encode_view_payload(out, std::get<ViewPayload>(m.payload));
      break;
    case 1:
      encode_news_payload(out, std::get<NewsPayload>(m.payload));
      break;
    default:
      encode_ack_payload(out, std::get<AckPayload>(m.payload));
      break;
  }
}

bool decode_message(WireReader& r, Message& out) {
  const std::uint64_t from = r.read_varint();
  const std::uint64_t to = r.read_varint();
  const std::int64_t sent_at = r.read_zigzag();
  const std::uint64_t seq = r.read_varint();
  const std::uint8_t type = r.read_u8();
  const std::uint8_t payload = r.read_u8();
  if (!r.ok() || from > UINT32_MAX || to > UINT32_MAX ||
      sent_at < INT32_MIN || sent_at > INT32_MAX || seq > UINT16_MAX ||
      type > static_cast<std::uint8_t>(MsgType::kRejoinReply) || payload > 2) {
    return false;
  }
  out.from = static_cast<NodeId>(from);
  out.to = static_cast<NodeId>(to);
  out.sent_at = static_cast<Cycle>(sent_at);
  out.seq = static_cast<std::uint16_t>(seq);
  out.type = static_cast<MsgType>(type);
  switch (payload) {
    case 0: {
      ViewPayload v;
      if (!decode_view_payload(r, v)) return false;
      out.payload = std::move(v);
      return true;
    }
    case 1: {
      NewsPayload n;
      if (!decode_news_payload(r, n)) return false;
      out.payload = std::move(n);
      return true;
    }
    default: {
      AckPayload a;
      if (!decode_ack_payload(r, a)) return false;
      out.payload = a;
      return true;
    }
  }
}

// ---- Envelope ----

void encode_envelope(std::vector<std::uint8_t>& out, Cycle due,
                     const Message& m) {
  wire_zigzag(out, due);
  encode_message(out, m);
}

bool decode_envelope(WireReader& r, Cycle& due, Message& out) {
  const std::int64_t d = r.read_zigzag();
  if (!r.ok() || d < INT32_MIN || d > INT32_MAX) return false;
  due = static_cast<Cycle>(d);
  return decode_message(r, out);
}

// ---- Frames ----

std::uint32_t wire_checksum(std::span<const std::uint8_t> payload) {
  return fnv1a32(payload);
}

void frame_append(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32le(out, fnv1a32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameStatus frame_extract(const std::uint8_t* buffer, std::size_t size,
                          std::size_t& offset,
                          std::span<const std::uint8_t>& payload) {
  if (size - offset < 8) return FrameStatus::kNeedMore;
  const std::uint32_t length = get_u32le(buffer + offset);
  const std::uint32_t checksum = get_u32le(buffer + offset + 4);
  if (length > kMaxFrameBytes) return FrameStatus::kCorrupt;
  if (size - offset - 8 < length) return FrameStatus::kNeedMore;
  const std::span<const std::uint8_t> body{buffer + offset + 8, length};
  if (fnv1a32(body) != checksum) return FrameStatus::kCorrupt;
  payload = body;
  offset += 8 + static_cast<std::size_t>(length);
  return FrameStatus::kOk;
}

}  // namespace whatsup::net
