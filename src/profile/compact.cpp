#include "profile/compact.hpp"

#include <cstring>
#include <span>

#include "common/varint.hpp"
#include "obs/registry.hpp"

namespace whatsup {

namespace {

// Scratch staging for the sign-extended timestamp lanes (stack for the
// common small profile, heap spill only for window-sized ones).
using WideArray = SmallVector<std::uint64_t, Profile::kInlineEntries * 2>;

// Byte sink writing into a record's pre-sized word buffer.
struct ByteCursor {
  std::uint8_t* p;
  void push_back(std::uint8_t b) { *p++ = b; }
};

bool all_binary(std::span<const double> scores) {
  for (const double s : scores) {
    if (s != 0.0 && s != 1.0) return false;
  }
  return true;
}

std::uint64_t fnv1a64(std::uint64_t h, const std::uint8_t* bytes,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x00000100000001B3ull;
  }
  return h;
}

obs::MetricId decodes_metric() {
  static const obs::MetricId id = obs::counter("profile.decodes");
  return id;
}

}  // namespace

void CompactProfile::init_from(const Profile& profile) {
  const std::size_t n = profile.size();
  version_ = profile.version();
  norm_ = profile.norm();
  count_ = static_cast<std::uint32_t>(n);
  liked_ = static_cast<std::uint32_t>(profile.liked_count());

  const std::span<const ItemId> ids = profile.ids();
  const std::span<const Cycle> timestamps = profile.timestamps();
  const std::span<const double> scores = profile.scores();
  flags_ = all_binary(scores) ? kBinaryScores : 0;

  WideArray wide;
  wide.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    wide[i] = static_cast<std::uint64_t>(static_cast<std::int64_t>(timestamps[i]));
  }

  const std::size_t lane_bytes = n * sizeof(ItemId) + score_bytes();
  const std::size_t total = lane_bytes + delta_encoded_size(wide.data(), n);
  words_.resize((total + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t));
  std::memcpy(words_.data(), ids.data(), n * sizeof(ItemId));
  auto* lanes = reinterpret_cast<std::uint8_t*>(words_.data() + n);
  if (binary()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (scores[i] == 1.0) lanes[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
  } else {
    std::memcpy(lanes, scores.data(), n * sizeof(double));
  }
  ByteCursor cursor{reinterpret_cast<std::uint8_t*>(words_.data()) + lane_bytes};
  delta_encode(cursor, wide.data(), n);
}

void CompactProfile::timestamps_into(Cycle* out) const {
  const std::size_t n = count_;
  const std::uint8_t* p = score_lanes() + score_bytes();
  WideArray wide;
  wide.resize(n);
  delta_decode(p, wide.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<Cycle>(static_cast<std::int64_t>(wide[i]));
  }
}

Profile CompactProfile::decode() const {
  if (obs::enabled()) [[unlikely]] obs::add(decodes_metric());
  const std::size_t n = count_;
  Profile out;
  out.ids_.resize(n);
  out.timestamps_.resize(n);
  out.scores_.resize(n);
  const ProfileView v = view();
  std::memcpy(out.ids_.data(), v.ids, n * sizeof(ItemId));
  for (std::size_t i = 0; i < n; ++i) out.scores_[i] = v.score(i);
  timestamps_into(out.timestamps_.data());
  out.liked_ = liked_;
  out.version_ = version_;
  out.cached_norm_ = norm_;
  out.norm_dirty_ = false;
  return out;
}

ProfileHandle ProfileHandle::snapshot(const Profile& profile) {
  if (profile.version() == 0) return empty_profile_handle();
  return adopt(SnapshotArena::instance().encode_blob(profile));
}

Profile ProfileHandle::decode() const {
  return slot_ == kNullArenaIndex ? Profile() : record()->decode();
}

const ProfileHandle& empty_profile_handle() {
  static const ProfileHandle kEmpty =
      ProfileHandle::adopt(SnapshotArena::instance().encode_blob(Profile{}));
  return kEmpty;
}

// ---- DescriptorRef --------------------------------------------------------

DescriptorRef DescriptorRef::make(Cycle timestamp,
                                  const ProfileHandle& profile) {
  DescriptorRef ref;
  if (profile == nullptr) {
    if (timestamp == kNoCycle) return ref;  // null ref ≡ {kNoCycle, none}
    const auto wide = static_cast<std::int64_t>(timestamp);
    if (wide >= kInlineMin && wide <= kInlineMax) {
      ref.bits_ = kInlineTag |
                  (static_cast<std::uint32_t>(timestamp) & ~kInlineTag);
      return ref;
    }
  }
  ref.bits_ = SnapshotArena::instance().make_stamp(timestamp, profile);
  return ref;
}

// ---- SnapshotArena --------------------------------------------------------

ArenaIndex SnapshotArena::encode_blob(const Profile& profile) {
  const ArenaIndex slot = blob_pool_.allocate();
  CompactProfile* record = blob_pool_.get(slot);
  record->slot_ = slot;
  record->init_from(profile);
  return slot;
}

void SnapshotArena::free_blob(const CompactProfile* record) {
  blob_pool_.free(record->slot_);
}

void SnapshotArena::free_stamp(ArenaIndex index, StampRecord* rec) {
  if (rec->blob != kNullArenaIndex) blob_pool_.get(rec->blob)->release();
  stamp_pool_.free(index);
}

ArenaIndex SnapshotArena::make_stamp(Cycle timestamp,
                                     const ProfileHandle& profile) {
  const ArenaIndex index = stamp_pool_.allocate();
  StampRecord* rec = stamp_pool_.get(index);
  rec->timestamp = timestamp;
  rec->blob = profile.slot();
  rec->size = 0;
  if (rec->blob != kNullArenaIndex) {
    const CompactProfile* blob = blob_pool_.get(rec->blob);
    blob->retain();  // the record's own blob reference
    rec->size = static_cast<std::uint32_t>(blob->size());
  }
  return index;
}

void SnapshotArena::sweep_shard(Shard& shard) {
  for (auto it = shard.map.begin(); it != shard.map.end();) {
    const CompactProfile* record = blob_pool_.get(it->second);
    // ref_count() == 1 means the table holds the only reference: no
    // descriptor anywhere still ships this generation (see the revive-race
    // note on SnapshotArena::Shard).
    if (record->ref_count() == 1) {
      record->release();
      it = shard.map.erase(it);
      ++shard.purged;
    } else {
      ++it;
    }
  }
  shard.sweep_at = shard.map.size() < 32 ? 64 : shard.map.size() * 2;
}

ProfileHandle SnapshotArena::intern_by_content(const Profile& profile) {
  if (profile.version() == 0) return empty_profile_handle();
  // Encode first: the content key is the canonical encoded record, so a
  // hash hit can be verified byte-for-byte before sharing.
  ProfileHandle fresh = ProfileHandle::snapshot(profile);
  const CompactProfile* record = fresh.record();
  std::uint64_t key = 0xCBF29CE484222325ull;
  const std::uint32_t header[3] = {record->count_, record->liked_,
                                   record->flags_};
  key = fnv1a64(key, reinterpret_cast<const std::uint8_t*>(header),
                sizeof(header));
  key = fnv1a64(key, reinterpret_cast<const std::uint8_t*>(record->words_.data()),
                record->encoded_bytes());

  Shard& shard = content_shards_[key % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    const CompactProfile* existing = blob_pool_.get(it->second);
    if (existing->count_ == record->count_ &&
        existing->liked_ == record->liked_ &&
        existing->flags_ == record->flags_ &&
        existing->words_ == record->words_) {
      ++shard.reused;
      existing->retain();
      return ProfileHandle::adopt(it->second);  // `fresh` frees on return
    }
    // 64-bit hash collision with different contents: fall through and keep
    // the fresh record un-interned (correct, merely unshared).
    return fresh;
  }
  record->retain();  // the table's own reference
  shard.map.emplace(key, fresh.slot());
  ++shard.interned;
  if (shard.map.size() >= shard.sweep_at) sweep_shard(shard);
  return fresh;
}

void SnapshotArena::advance_epoch() {
  const std::uint64_t epoch = epoch_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = content_shards_[epoch % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mu);
  sweep_shard(shard);
}

void SnapshotArena::purge_dead() {
  for (Shard& shard : content_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    sweep_shard(shard);
  }
}

SnapshotArena::Stats SnapshotArena::stats() const {
  Stats stats;
  for (const Shard& shard : content_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    stats.entries += shard.map.size();
    for (const auto& [key, slot] : shard.map) {
      (void)key;
      if (blob_pool_.get(slot)->ref_count() > 1) ++stats.live;
    }
    stats.interned += shard.interned;
    stats.reused += shard.reused;
    stats.purged += shard.purged;
  }
  stats.blobs = blob_pool_.stats();
  stats.stamps = stamp_pool_.stats();
  return stats;
}

}  // namespace whatsup
