// Compact profile snapshots in a per-run slab arena — the storage layer
// behind every net::Descriptor.
//
// A descriptor used to carry a deep `shared_ptr<const Profile>` snapshot:
// ~230 bytes of SoA storage per copy (plus heap spill past 8 entries),
// duplicated across every view and in-flight message that referenced the
// same profile generation. Encoded records behind intrusive handles
// replaced it; this header keeps the records in chunked slab storage
// addressed by a 32-bit index, so a handle is a u32 and a whole descriptor
// packs into 8 bytes (net/message.hpp). Pieces:
//
//  * `CompactProfile` — an immutable, lossless profile record laid out for
//    scoring in place: the raw u64 item ids in an 8-byte-aligned buffer,
//    then a 1-bit-per-entry mask for binary score vectors (user profiles
//    are all 0/1; real-valued item-profile scores fall back to raw 8-byte
//    doubles), then varint zigzag deltas of the timestamps, which only cold
//    paths read. Item ids are 64-bit hashes (make_item_id), whose varint
//    deltas cost 8-9 bytes each, so the raw id is never larger. The header
//    keeps the source profile's `version()`, its cached `norm()` and
//    `liked_count()`. `view()` hands the similarity kernels the ids, mask
//    or doubles, norm and liked count straight from the record, and scores
//    bit-identically to the decoded copy — which is what keeps fixed-seed
//    digest trajectories identical under this storage. `decode()` rebuilds
//    a Profile that is bit-indistinguishable from a copy of the source
//    (cold start, tests). Records live in arena slabs, never on the general
//    heap (only oversized payloads spill).
//  * `ProfileHandle` — the 4-byte value caches and cold paths hold (an
//    intrusive refcount on the slab record, addressed by arena index).
//    `ProfileHandle::snapshot` is the one way to snapshot a local profile:
//    a fresh record, freed with its last holder. Sharing one generation
//    across messages and cycles is the per-agent ProfileSnapshotCache's
//    job (profile/snapshot.hpp), which holds the handle while the
//    profile's version is unchanged.
//  * `DescriptorRef` — the tagged 4-byte payload of a packed descriptor:
//    either an index into the arena's stamp-record pool (a tiny refcounted
//    {timestamp, profile} pair shared by every copy of one descriptor
//    generation), or — for profile-less bootstrap descriptors — the
//    timestamp itself stored inline, costing no arena record at all.
//  * `SnapshotArena` — the process-wide slab arena: chunked pools with
//    per-chunk freelists (empty chunks are retired and their slabs freed —
//    the "compaction" step), plus a content-keyed intern table so the wire
//    codec re-interns identical snapshots arriving repeatedly from other
//    fragments. Dead interned records are purged epoch-wise: the engine
//    advances the epoch each cycle, sweeping one shard of the table, and
//    inserts amortize a sweep so the table stays bounded even without an
//    engine. Every other record frees immediately when its last holder
//    drops.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/small_vector.hpp"
#include "profile/profile.hpp"

namespace whatsup {

class ProfileHandle;
class SnapshotArena;

// Slab addresses: 32-bit indices into a SnapshotArena pool. The top of the
// index space is reserved so DescriptorRef can tag non-index payloads.
using ArenaIndex = std::uint32_t;
inline constexpr ArenaIndex kNullArenaIndex = 0xFFFFFFFFu;

class CompactProfile {
 public:
  // In-place scoring view (ids, mask or doubles, norm, liked count): what
  // the hot paths hand the similarity kernels. Valid while the record is.
  ProfileView view() const;

  // Restores the exact source contents (ids/timestamps/scores, version,
  // liked count, cached norm) by value. Cold paths only (cold start,
  // tests); counted as `profile.decodes`.
  Profile decode() const;

  // Decodes the timestamp lanes into out[0..size()) (the wire codec).
  void timestamps_into(Cycle* out) const;

  std::size_t size() const { return count_; }
  std::uint64_t version() const { return version_; }
  double norm() const { return norm_; }
  std::size_t liked_count() const { return liked_; }

  // Payload bytes (observability; excludes the record header).
  std::size_t encoded_bytes() const { return words_.size() * sizeof(std::uint64_t); }
  // Full resident cost of this record: slab slot + any heap spill.
  std::size_t resident_bytes() const {
    return sizeof(CompactProfile) +
           (words_.capacity() > kInlineWords ? words_.capacity() * sizeof(std::uint64_t)
                                             : 0);
  }

 private:
  friend class ProfileHandle;
  friend class DescriptorRef;
  friend class SnapshotArena;
  template <typename Record>
  friend class SlabPool;

  static constexpr std::size_t kInlineWords = 3;
  static constexpr std::uint8_t kBinaryScores = 1;  // flags bit

  CompactProfile() = default;
  ~CompactProfile() = default;

  // Fills this (freshly constructed) record from `profile`. The norm cache
  // is warmed (and captured) here, so views can be scored from concurrent
  // shard workers without racing on the lazy norm.
  void init_from(const Profile& profile);

  bool binary() const { return (flags_ & kBinaryScores) != 0; }
  std::size_t score_bytes() const {
    return binary() ? (count_ + 7) / 8 : count_ * sizeof(double);
  }
  // Start of the score lanes (mask bytes or doubles), right after the ids.
  const std::uint8_t* score_lanes() const {
    return reinterpret_cast<const std::uint8_t*>(words_.data() + count_);
  }

  // Intrusive reference count: one count per live ProfileHandle (plus one
  // per stamp record referencing this blob, plus one held by the content
  // table while the record is interned there). Atomic because descriptors
  // holding the same record are copied and dropped from concurrent shard
  // workers. The release slow path returns the slot to the arena.
  void retain() const { refs_.fetch_add(1, std::memory_order_relaxed); }
  void release() const;
  std::uint32_t ref_count() const { return refs_.load(std::memory_order_acquire); }

  mutable std::atomic<std::uint32_t> refs_{1};
  ArenaIndex slot_ = kNullArenaIndex;  // own index (release → freelist)
  std::uint64_t version_ = 0;
  double norm_ = 0.0;
  std::uint32_t count_ = 0;
  std::uint32_t liked_ = 0;
  std::uint8_t flags_ = 0;
  // Layout, in 8-byte words: [count_ raw ids][score mask bytes | count_
  // raw doubles][timestamp zigzag-delta varints], the tail zero-padded to
  // a whole word. Word storage keeps ids and doubles 8-byte aligned.
  SmallVector<std::uint64_t, kInlineWords> words_;
};

// A descriptor generation: the timestamp its owner stamped at emission plus
// the profile snapshot it shipped. Every copy of the descriptor (views,
// in-flight messages, merge buffers) shares one record by refcount, so the
// per-copy cost is the 4-byte index, not the record. The snapshot's entry
// count (the wire-size model's input) is denormalized into the record at
// creation (immutable on the blob), so a size query costs one slab lookup
// instead of chasing stamp → blob across chunks.
struct StampRecord {
  mutable std::atomic<std::uint32_t> refs{1};
  Cycle timestamp = kNoCycle;
  ArenaIndex blob = kNullArenaIndex;  // kNullArenaIndex: bare address, no snapshot
  std::uint32_t size = 0;             // blob entry count (0 when no blob)
};

// Chunked slab pool: records live in fixed-size chunks addressed by a
// 32-bit index (chunk number · slot), with a per-chunk freelist. Lookups
// are lock-free (an atomic chunk-pointer table); allocate/free take the
// pool mutex. A chunk whose records all died is RETIRED — its slab is
// freed and its slots leave the freelist — and lazily revived (fresh slab)
// if the pool grows again: epoch purge thereby compacts the arena instead
// of only recycling slots.
template <typename Record>
class SlabPool {
 public:
  static constexpr std::uint32_t kChunkShift = 12;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
  // 32768 chunks × 4096 slots = 2^27 addressable records, far below the
  // 2^31 ceiling DescriptorRef's tag bit imposes on indices.
  static constexpr std::uint32_t kMaxChunks = 1u << 15;

  SlabPool() : chunks_(new std::atomic<Slot*>[kMaxChunks]) {
    for (std::uint32_t c = 0; c < kMaxChunks; ++c) {
      chunks_[c].store(nullptr, std::memory_order_relaxed);
    }
  }
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() {
    for (std::uint32_t c = 0; c < kMaxChunks; ++c) {
      delete[] chunks_[c].load(std::memory_order_relaxed);
    }
  }

  // Lock-free: callers hold a reference on the record (directly or through
  // a handle), which pins the chunk (live > 0 chunks are never retired).
  Record* get(ArenaIndex index) const {
    Slot* chunk = chunks_[index >> kChunkShift].load(std::memory_order_acquire);
    return chunk[index & (kChunkSlots - 1)].record();
  }

  // Allocates a slot and default-constructs a Record in it.
  ArenaIndex allocate() {
    std::lock_guard<std::mutex> lock(mu_);
    while (!free_chunks_.empty()) {
      const std::uint32_t c = free_chunks_.back();
      Slot* chunk = chunks_[c].load(std::memory_order_relaxed);
      if (chunk == nullptr || meta_[c].free_head == kNullArenaIndex) {
        free_chunks_.pop_back();  // stale entry (retired or drained chunk)
        continue;
      }
      const ArenaIndex index = meta_[c].free_head;
      Slot& slot = chunk[index & (kChunkSlots - 1)];
      meta_[c].free_head = slot.next_free();
      ++meta_[c].live;
      ++live_;
      new (slot.storage) Record();
      return index;
    }
    return allocate_in_new_chunk();
  }

  // Destroys the record and recycles the slot; retires fully-dead chunks
  // (keeping the newest chunk warm against alloc/free oscillation).
  void free(ArenaIndex index) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint32_t c = index >> kChunkShift;
    Slot* chunk = chunks_[c].load(std::memory_order_relaxed);
    Slot& slot = chunk[index & (kChunkSlots - 1)];
    slot.record()->~Record();
    slot.next_free() = meta_[c].free_head;
    meta_[c].free_head = index;
    --meta_[c].live;
    --live_;
    if (meta_[c].live == 0 && c != newest_chunk_) {
      chunks_[c].store(nullptr, std::memory_order_release);
      delete[] chunk;
      meta_[c].free_head = kNullArenaIndex;
      ++retired_;
    } else if (slot.next_free() == kNullArenaIndex) {
      free_chunks_.push_back(c);  // chunk re-entered the freelist
    }
  }

  struct Stats {
    std::size_t live = 0;           // constructed records
    std::size_t chunks = 0;         // slabs currently allocated
    std::size_t retired = 0;        // slabs freed by compaction (lifetime)
    std::size_t resident_bytes = 0; // slab storage held right now
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.live = live_;
    s.retired = retired_;
    for (std::uint32_t c = 0; c < meta_.size(); ++c) {
      if (chunks_[c].load(std::memory_order_relaxed) != nullptr) ++s.chunks;
    }
    s.resident_bytes = s.chunks * kChunkSlots * sizeof(Slot);
    return s;
  }

 private:
  struct Slot {
    alignas(Record) unsigned char storage[sizeof(Record)];
    Record* record() { return std::launder(reinterpret_cast<Record*>(storage)); }
    // Vacant slots overlay the freelist link on the record storage.
    std::uint32_t& next_free() {
      return *reinterpret_cast<std::uint32_t*>(storage);
    }
  };
  static_assert(sizeof(Record) >= sizeof(std::uint32_t));

  struct ChunkMeta {
    std::uint32_t live = 0;
    ArenaIndex free_head = kNullArenaIndex;
  };

  // Caller holds mu_. Revives a retired chunk or appends a new one.
  ArenaIndex allocate_in_new_chunk() {
    std::uint32_t c = 0;
    while (c < meta_.size() &&
           chunks_[c].load(std::memory_order_relaxed) != nullptr) {
      ++c;
    }
    if (c == meta_.size()) meta_.emplace_back();
    Slot* chunk = new Slot[kChunkSlots];
    const ArenaIndex base = c << kChunkShift;
    for (std::uint32_t i = 1; i < kChunkSlots - 1; ++i) {
      chunk[i].next_free() = base + i + 1;
    }
    chunk[kChunkSlots - 1].next_free() = kNullArenaIndex;
    meta_[c].free_head = base + 1;  // slot 0 is handed out below
    meta_[c].live = 1;
    ++live_;
    chunks_[c].store(chunk, std::memory_order_release);
    newest_chunk_ = c;
    free_chunks_.push_back(c);
    new (chunk[0].storage) Record();
    return base;
  }

  mutable std::mutex mu_;
  std::unique_ptr<std::atomic<Slot*>[]> chunks_;
  std::vector<ChunkMeta> meta_;
  // Chunk ids that may hold free slots (lazily pruned stack).
  std::vector<std::uint32_t> free_chunks_;
  std::uint32_t newest_chunk_ = 0;
  std::size_t live_ = 0;
  std::size_t retired_ = 0;
};

class ProfileHandle {
 public:
  ProfileHandle() = default;
  // Bootstrap descriptors ship bare addresses: a null handle means "no
  // snapshot", which view refresh treats differently from an empty profile.
  ProfileHandle(std::nullptr_t) {}

  ProfileHandle(const ProfileHandle& other);
  ProfileHandle(ProfileHandle&& other) noexcept : slot_(other.slot_) {
    other.slot_ = kNullArenaIndex;
  }
  ProfileHandle& operator=(const ProfileHandle& other) {
    ProfileHandle copy(other);
    std::swap(slot_, copy.slot_);
    return *this;
  }
  ProfileHandle& operator=(ProfileHandle&& other) noexcept {
    std::swap(slot_, other.slot_);
    return *this;
  }
  ~ProfileHandle();

  // Takes ownership of one reference to the record at `slot` (no retain).
  static ProfileHandle adopt(ArenaIndex slot) {
    ProfileHandle handle;
    handle.slot_ = slot;
    return handle;
  }

  // Snapshot of `profile`'s current contents: the shared empty handle for
  // an empty (version 0) profile, otherwise a fresh record freed with its
  // last holder. Callers that ship the same generation repeatedly keep the
  // handle (ProfileSnapshotCache) rather than snapshotting again.
  static ProfileHandle snapshot(const Profile& profile);

  // In-place scoring view / by-value decode of the record (see
  // CompactProfile). Null handles yield an empty view / empty Profile.
  ProfileView view() const;
  Profile decode() const;

  // Header reads that do NOT decode (the wire-size model).
  std::size_t size() const;
  bool empty() const { return size() == 0; }
  std::uint64_t version() const;

  ArenaIndex slot() const { return slot_; }
  const CompactProfile* record() const;
  const CompactProfile* operator->() const { return record(); }
  long use_count() const;

  explicit operator bool() const { return slot_ != kNullArenaIndex; }
  bool operator==(std::nullptr_t) const { return slot_ == kNullArenaIndex; }
  bool operator==(const ProfileHandle& other) const = default;

 private:
  ArenaIndex slot_ = kNullArenaIndex;
};

static_assert(sizeof(ProfileHandle) == 4,
              "handles are meant to be arena indices, not pointers");

// Shared handle for empty profiles (version 0): non-null — an explicitly
// empty snapshot is distinct from a bootstrap descriptor with no snapshot.
const ProfileHandle& empty_profile_handle();

// The 4-byte payload of a packed net::Descriptor: (timestamp, snapshot) of
// one descriptor generation. Three encodings in one u32:
//
//   bits_ == kNullBits          — null: no record, timestamp() == kNoCycle.
//   bit 31 set                  — profile-less descriptor with the 31-bit
//                                 timestamp stored INLINE (bootstrap seeds
//                                 cost no arena record at all).
//   otherwise                   — index of an arena StampRecord, shared by
//                                 refcount with every copy of the
//                                 generation.
class DescriptorRef {
 public:
  DescriptorRef() = default;
  DescriptorRef(std::nullptr_t) {}

  DescriptorRef(const DescriptorRef& other);
  DescriptorRef(DescriptorRef&& other) noexcept : bits_(other.bits_) {
    other.bits_ = kNullBits;
  }
  DescriptorRef& operator=(const DescriptorRef& other) {
    DescriptorRef copy(other);
    std::swap(bits_, copy.bits_);
    return *this;
  }
  DescriptorRef& operator=(DescriptorRef&& other) noexcept {
    std::swap(bits_, other.bits_);
    return *this;
  }
  ~DescriptorRef();

  // One generation: the emission timestamp plus the (possibly null)
  // snapshot. Profile-less refs with an inline-representable timestamp
  // allocate nothing.
  static DescriptorRef make(Cycle timestamp, const ProfileHandle& profile);

  Cycle timestamp() const;
  bool has_profile() const;
  std::size_t profile_size() const;
  // Retained handle on the snapshot (cold paths); null when !has_profile().
  ProfileHandle profile() const;
  // In-place scoring view of the snapshot (see CompactProfile::view); null
  // refs and profile-less descriptors yield an empty view.
  ProfileView view() const;

  bool is_null() const { return bits_ == kNullBits; }

 private:
  friend class SnapshotArena;

  static constexpr std::uint32_t kNullBits = 0x7FFFFFFFu;
  static constexpr std::uint32_t kInlineTag = 0x80000000u;
  // Inline-representable timestamps: 31-bit two's complement.
  static constexpr std::int64_t kInlineMin = -(std::int64_t{1} << 30);
  static constexpr std::int64_t kInlineMax = (std::int64_t{1} << 30) - 1;

  bool is_inline() const { return (bits_ & kInlineTag) != 0; }
  bool is_record() const { return !is_inline() && bits_ != kNullBits; }
  Cycle inline_timestamp() const {
    // Sign-extend the low 31 bits.
    const auto low = static_cast<std::uint32_t>(bits_ & ~kInlineTag);
    return static_cast<Cycle>((low ^ (1u << 30)) - (1u << 30));
  }
  const StampRecord* record() const;

  std::uint32_t bits_ = kNullBits;
};

static_assert(sizeof(DescriptorRef) == 4);

class SnapshotArena {
 public:
  // Inline (header-defined below): every descriptor copy/drop funnels
  // through here, ~10^8 times per bench run, so the lookup must compile to
  // a guard check + load, not a cross-TU call.
  static SnapshotArena& instance();

  // Content-keyed intern for snapshots arriving over the wire: the
  // sender's version stamps are process-local and meaningless here, so
  // identical payloads re-arriving across fragment barriers must dedupe by
  // CONTENT (encoded bytes + header) or every arrival would hold its own
  // record. The returned record keeps the version of its first arrival —
  // versions only key caches, never behavior. Thread-safe.
  ProfileHandle intern_by_content(const Profile& profile);

  // A stamp record for (timestamp, profile); retains the blob. Returns the
  // new record's index with its initial reference owned by the caller.
  ArenaIndex make_stamp(Cycle timestamp, const ProfileHandle& profile);

  // Epoch purge: sweeps ONE shard of the content table, dropping entries
  // whose record has no holder beyond the table's own reference, and
  // retiring slab chunks left empty. The engine calls this once per cycle,
  // so dead wire arrivals are reclaimed within kShardCount cycles of their
  // last holder vanishing, at O(shard) cost per cycle.
  void advance_epoch();

  // Full sweep of every shard (tests and shutdown hygiene).
  void purge_dead();

  struct Stats {
    std::size_t entries = 0;        // content-table entries
    std::size_t live = 0;           // entries with a live outside holder
    std::uint64_t interned = 0;     // records encoded via the table
    std::uint64_t reused = 0;       // intern hits on a live record
    std::uint64_t purged = 0;       // dead entries swept
    SlabPool<CompactProfile>::Stats blobs;
    SlabPool<StampRecord>::Stats stamps;
  };
  Stats stats() const;

  // ---- record plumbing (handles and inline accessors; not for callers) --
  const CompactProfile* blob(ArenaIndex index) const {
    return blob_pool_.get(index);
  }
  const StampRecord* stamp(ArenaIndex index) const {
    return stamp_pool_.get(index);
  }
  void retain_stamp(ArenaIndex index) const {
    stamp_pool_.get(index)->refs.fetch_add(1, std::memory_order_relaxed);
  }
  // Inline fast path: one decrement per descriptor drop. Only the last
  // holder takes the out-of-line free (blob release + slot recycle).
  void release_stamp(ArenaIndex index) {
    StampRecord* rec = stamp_pool_.get(index);
    if (rec->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      free_stamp(index, rec);
    }
  }
  void free_blob(const CompactProfile* record);
  // Encodes a fresh blob record (pool slot + init); caller owns the ref.
  ArenaIndex encode_blob(const Profile& profile);

 private:
  SnapshotArena() = default;

  // Content keys are hashes, so key % kShardCount spreads the shards.
  static constexpr std::size_t kShardCount = 64;

  // The table owns one reference per entry; an entry whose record has
  // ref_count() == 1 has no outside holder left and is swept. A content
  // key cannot gain a new holder except through intern_by_content (which
  // takes the shard mutex) or by copying an existing handle (none exist at
  // count 1), so the sweep's release-and-erase under the mutex cannot race
  // a revive.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, ArenaIndex> map;
    // Inserts amortize a sweep once the map doubles past the last swept
    // size, bounding dead-entry growth even without an engine epoch.
    std::size_t sweep_at = 64;
    std::uint64_t interned = 0;
    std::uint64_t reused = 0;
    std::uint64_t purged = 0;
  };

  // Drops every table-only entry of `shard` (caller holds shard.mu).
  void sweep_shard(Shard& shard);
  // release_stamp slow path: frees `rec` (whose count just hit zero).
  void free_stamp(ArenaIndex index, StampRecord* rec);

  SlabPool<CompactProfile> blob_pool_;
  SlabPool<StampRecord> stamp_pool_;
  Shard content_shards_[kShardCount];
  std::atomic<std::uint64_t> epoch_{0};
};

// ---- inline definitions ---------------------------------------------------

inline SnapshotArena& SnapshotArena::instance() {
  // Deliberately leaked: static handles (empty_profile_handle, test
  // fixtures) release through the arena at exit, so it must outlive every
  // other static-duration object. Defined inline because every handle and
  // descriptor refcount op routes through it — out-of-line this was ~10^8
  // calls per bench run.
  static SnapshotArena* arena = new SnapshotArena();
  return *arena;
}

inline void CompactProfile::release() const {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    SnapshotArena::instance().free_blob(this);
  }
}

inline ProfileHandle::ProfileHandle(const ProfileHandle& other)
    : slot_(other.slot_) {
  if (slot_ != kNullArenaIndex) record()->retain();
}

inline ProfileHandle::~ProfileHandle() {
  if (slot_ != kNullArenaIndex) record()->release();
}

inline const CompactProfile* ProfileHandle::record() const {
  return slot_ == kNullArenaIndex ? nullptr
                                  : SnapshotArena::instance().blob(slot_);
}

inline std::size_t ProfileHandle::size() const {
  return slot_ == kNullArenaIndex ? 0 : record()->size();
}

inline std::uint64_t ProfileHandle::version() const {
  return slot_ == kNullArenaIndex ? 0 : record()->version();
}

inline long ProfileHandle::use_count() const {
  return slot_ == kNullArenaIndex ? 0 : record()->ref_count();
}

inline DescriptorRef::DescriptorRef(const DescriptorRef& other)
    : bits_(other.bits_) {
  if (is_record()) SnapshotArena::instance().retain_stamp(bits_);
}

inline DescriptorRef::~DescriptorRef() {
  if (is_record()) SnapshotArena::instance().release_stamp(bits_);
}

inline const StampRecord* DescriptorRef::record() const {
  return SnapshotArena::instance().stamp(bits_);
}

inline Cycle DescriptorRef::timestamp() const {
  if (is_inline()) return inline_timestamp();
  if (bits_ == kNullBits) return kNoCycle;
  return record()->timestamp;
}

inline bool DescriptorRef::has_profile() const {
  return is_record() && record()->blob != kNullArenaIndex;
}

inline std::size_t DescriptorRef::profile_size() const {
  if (!is_record()) return 0;
  return record()->size;  // denormalized from the blob at make_stamp
}

inline ProfileHandle DescriptorRef::profile() const {
  if (!is_record()) return ProfileHandle();
  const StampRecord* rec = record();
  if (rec->blob == kNullArenaIndex) return ProfileHandle();
  SnapshotArena::instance().blob(rec->blob)->retain();
  return ProfileHandle::adopt(rec->blob);
}

inline ProfileView CompactProfile::view() const {
  ProfileView v;
  v.ids = words_.data();
  v.size = count_;
  v.norm = norm_;
  v.liked = liked_;
  if (binary()) {
    v.score_mask = score_lanes();
  } else {
    v.scores = reinterpret_cast<const double*>(words_.data() + count_);
  }
  return v;
}

inline ProfileView ProfileHandle::view() const {
  return slot_ == kNullArenaIndex ? ProfileView() : record()->view();
}

inline ProfileView DescriptorRef::view() const {
  if (!is_record()) return ProfileView();
  const StampRecord* rec = record();
  // The denormalized size spares empty snapshots the blob lookup.
  if (rec->size == 0) return ProfileView();
  return SnapshotArena::instance().blob(rec->blob)->view();
}

}  // namespace whatsup
