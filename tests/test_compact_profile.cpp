// Property tests for the compact-profile storage layer: the varint/delta
// codec underneath its timestamp lanes, bit-exact encode/decode round
// trips, in-place scoring views, and the arena's content intern table
// (refcounts, reuse, epoch purge, cross-thread isolation).
//
// The contract that everything else leans on: a Profile decoded from its
// CompactProfile is indistinguishable — contents, version, cached norm,
// liked count — from a plain copy of the original, and the record's
// in-place view scores exactly like that copy (tests/test_similarity.cpp
// pins the kernels). Anything less and fixed-seed digest trajectories
// would drift.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/varint.hpp"
#include "profile/compact.hpp"
#include "profile/profile.hpp"
#include "profile/similarity.hpp"

namespace whatsup {
namespace {

// ---- varint / delta codec -------------------------------------------------

std::vector<std::uint8_t> delta_bytes(const std::vector<std::uint64_t>& values) {
  std::vector<std::uint8_t> out;
  delta_encode(out, values.data(), values.size());
  return out;
}

std::vector<std::uint64_t> delta_back(const std::vector<std::uint8_t>& bytes,
                                      std::size_t n) {
  std::vector<std::uint64_t> out(n);
  const std::uint8_t* p = bytes.data();
  delta_decode(p, out.data(), n);
  EXPECT_EQ(p, bytes.data() + bytes.size());
  return out;
}

TEST(VarintCodec, SingleValueRoundTrip) {
  const std::uint64_t probes[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63),
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : probes) {
    std::vector<std::uint8_t> buf;
    varint_append(buf, v);
    EXPECT_EQ(buf.size(), varint_size(v));
    const std::uint8_t* p = buf.data();
    EXPECT_EQ(varint_read(p), v);
    EXPECT_EQ(p, buf.data() + buf.size());
  }
}

TEST(VarintCodec, ZigzagIsAnInvolutionOnBoundaries) {
  const std::int64_t probes[] = {0, 1, -1, 63, -64,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : probes) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes must stay small after mapping (that's the point).
  EXPECT_LE(zigzag_encode(-3), 8u);
  EXPECT_LE(zigzag_encode(3), 8u);
}

TEST(DeltaCodec, AscendingSequences) {
  Rng rng(100);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> values;
    std::uint64_t cur = rng.index(1000);
    const std::size_t n = rng.index(64);
    for (std::size_t i = 0; i < n; ++i) {
      cur += rng.index(5000);
      values.push_back(cur);
    }
    const auto bytes = delta_bytes(values);
    EXPECT_EQ(bytes.size(), delta_encoded_size(values.data(), values.size()));
    EXPECT_EQ(delta_back(bytes, values.size()), values);
  }
}

TEST(DeltaCodec, NonAscendingAndDuplicateAdjacent) {
  // The codec is mod-2^64 arithmetic, so it must be lossless for ARBITRARY
  // sequences — descending runs, repeats, zig-zags.
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> values;
    const std::size_t n = rng.index(64);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.index(3)) {
        case 0:
          values.push_back(rng.next_u64());
          break;
        case 1:  // duplicate-adjacent
          values.push_back(values.empty() ? 7 : values.back());
          break;
        case 2:  // strictly below the previous value
          values.push_back(values.empty() ? 0 : values.back() - rng.index(100) - 1);
          break;
      }
    }
    EXPECT_EQ(delta_back(delta_bytes(values), values.size()), values);
  }
}

TEST(DeltaCodec, BoundaryValues) {
  const std::vector<std::uint64_t> values = {
      std::numeric_limits<std::uint64_t>::max(),
      0,
      std::numeric_limits<std::uint64_t>::max(),
      1ull << 63,
      (1ull << 63) - 1,
      0,
      0};
  EXPECT_EQ(delta_back(delta_bytes(values), values.size()), values);
}

TEST(DeltaCodec, EmptySequence) {
  const std::vector<std::uint64_t> empty;
  EXPECT_EQ(delta_encoded_size(empty.data(), 0), 0u);
  EXPECT_TRUE(delta_bytes(empty).empty());
}

// ---- CompactProfile round trips -------------------------------------------

Profile random_profile(Rng& rng, std::size_t entries, ItemId universe,
                       bool binary_scores) {
  Profile p;
  for (std::size_t i = 0; i < entries; ++i) {
    const double score = binary_scores ? (rng.bernoulli(0.5) ? 1.0 : 0.0)
                                       : rng.uniform();
    p.set(rng.index(universe) + 1, static_cast<Cycle>(rng.index(50)), score);
  }
  return p;
}

void expect_bit_identical(const Profile& original, const Profile& decoded) {
  ASSERT_EQ(decoded, original);
  EXPECT_EQ(decoded.version(), original.version());
  EXPECT_EQ(decoded.liked_count(), original.liked_count());
  EXPECT_EQ(decoded.norm(), original.norm());  // bit-equal, not approximate
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded.entry(i).id, original.entry(i).id);
    EXPECT_EQ(decoded.entry(i).timestamp, original.entry(i).timestamp);
    EXPECT_EQ(decoded.entry(i).score, original.entry(i).score);
  }
}

TEST(CompactProfile, RoundTripIsBitIdenticalToCopy) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const bool binary = rng.bernoulli(0.5);
    const Profile p = random_profile(rng, rng.index(60), 200, binary);
    const auto compact = ProfileHandle::snapshot(p);
    expect_bit_identical(p, compact->decode());
    // Header-only reads agree without decoding.
    EXPECT_EQ(compact->size(), p.size());
    EXPECT_EQ(compact->version(), p.version());
    EXPECT_EQ(compact->liked_count(), p.liked_count());
    EXPECT_EQ(compact->norm(), p.norm());
  }
}

TEST(CompactProfile, BinaryScoresPackToBitmask) {
  // All-binary scores encode as one bit each; real-valued scores fall back
  // to raw 8-byte doubles. The binary form must be ~8x smaller on scores.
  Rng rng(8);
  Profile binary, real;
  for (int i = 1; i <= 64; ++i) {
    binary.set(i, 0, i % 2 == 0 ? 1.0 : 0.0);
    real.set(i, 0, 0.25 + i * 1e-3);
  }
  const auto cb = ProfileHandle::snapshot(binary);
  const auto cr = ProfileHandle::snapshot(real);
  EXPECT_LT(cb->encoded_bytes() + 64 * 7, cr->encoded_bytes());
  expect_bit_identical(binary, cb->decode());
  expect_bit_identical(real, cr->decode());
}

TEST(CompactProfile, ViewReadsRawIdsAndScoreLanesInPlace) {
  // The scoring view points into the record: raw ascending ids, a 1-bit
  // mask for binary scores, raw doubles otherwise, plus the header stats.
  Rng rng(9);
  for (const bool binary : {true, false}) {
    const Profile p = random_profile(rng, 37, 1000, binary);
    const auto compact = ProfileHandle::snapshot(p);
    const ProfileView v = compact->view();
    ASSERT_EQ(v.size, p.size());
    EXPECT_EQ(v.score_mask != nullptr, binary);
    EXPECT_EQ(v.scores != nullptr, !binary);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.ids) % alignof(ItemId), 0u);
    EXPECT_EQ(v.norm, p.norm());
    EXPECT_EQ(v.liked, p.liked_count());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(v.ids[i], p.ids()[i]);
      EXPECT_EQ(v.score(i), p.scores()[i]);
    }
  }
}

TEST(CompactProfile, RawIdsAreNoLargerThanDeltaCodedHashes) {
  // Item ids are 64-bit hashes; their zigzag varint deltas cost 8-10 bytes
  // each, so storing them raw (8 bytes) never grows a record.
  Rng rng(10);
  Profile p;
  for (int i = 0; i < 50; ++i) p.set(rng.next_u64(), i, 1.0);
  std::vector<std::uint64_t> ids(p.ids().begin(), p.ids().end());
  const auto compact = ProfileHandle::snapshot(p);
  EXPECT_LE(p.size() * sizeof(ItemId), delta_encoded_size(ids.data(), ids.size()));
  EXPECT_EQ(compact->decode(), p);
}

TEST(CompactProfile, NonFiniteAndNegativeScoresSurvive) {
  Profile p;
  p.set(1, 0, -0.0);
  p.set(2, 0, std::numeric_limits<double>::infinity());
  p.set(3, 0, std::numeric_limits<double>::denorm_min());
  const Profile decoded = ProfileHandle::snapshot(p)->decode();
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.entry(i).score),
              std::bit_cast<std::uint64_t>(p.entry(i).score));
  }
}

TEST(CompactProfile, NegativeTimestampsSurvive) {
  Profile p;
  p.set(5, -3, 1.0);
  p.set(9, 40, 0.0);
  expect_bit_identical(p, ProfileHandle::snapshot(p)->decode());
}

// ---- ProfileHandle ----------------------------------------------------------

TEST(ProfileHandle, NullVersusEmptyAreDistinct) {
  const ProfileHandle null_handle;
  EXPECT_TRUE(null_handle == nullptr);
  EXPECT_FALSE(static_cast<bool>(null_handle));
  const ProfileHandle& empty = empty_profile_handle();
  EXPECT_FALSE(empty == nullptr);
  EXPECT_TRUE(static_cast<bool>(empty));
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.version(), 0u);
  EXPECT_TRUE(empty.decode().empty());
  EXPECT_EQ(empty.view().size, 0u);
  EXPECT_TRUE(null_handle.decode().empty());
  EXPECT_EQ(null_handle.view().size, 0u);
}

TEST(ProfileHandle, HandleIsFourBytesWide) {
  // Records live in slab chunks addressed by a 32-bit arena index, so a
  // handle is a u32 (PR 7's pointer handle was 8 bytes; a shared_ptr 16).
  EXPECT_EQ(sizeof(ProfileHandle), 4u);
}

TEST(ProfileHandle, ViewsAndDecodesMatchSnapshotsInAnyOrder) {
  // Many live versions read in random order: every view and every decode
  // must match the snapshot taken, with no state shared between reads.
  Rng rng(31);
  std::vector<Profile> originals;
  std::vector<ProfileHandle> handles;
  for (int i = 0; i < 7; ++i) {
    originals.push_back(random_profile(rng, 12, 80, false));
    handles.push_back(ProfileHandle::snapshot(originals.back()));
  }
  for (int round = 0; round < 30; ++round) {
    const std::size_t k = rng.index(handles.size());
    expect_bit_identical(originals[k], handles[k].decode());
    const ProfileView v = handles[k].view();
    ASSERT_EQ(v.size, originals[k].size());
    for (std::size_t i = 0; i < v.size; ++i) {
      EXPECT_EQ(v.ids[i], originals[k].ids()[i]);
      EXPECT_EQ(v.score(i), originals[k].scores()[i]);
    }
  }
}

TEST(ProfileHandle, SnapshotIsImmutableUnderSourceMutation) {
  Profile p;
  p.set(1, 0, 1.0);
  const ProfileHandle h = ProfileHandle::snapshot(p);
  const Profile before = p;
  p.set(2, 0, 1.0);
  p.set(3, 5, 0.0);
  expect_bit_identical(before, h.decode());
}

// ---- SnapshotArena --------------------------------------------------------

TEST(SnapshotArena, PurgeDropsDeadEntriesKeepsLive) {
  auto& arena = SnapshotArena::instance();
  Profile keep, drop;
  keep.set(1, 0, 1.0);
  drop.set(2, 0, 1.0);
  const std::uint64_t purged_before = arena.stats().purged;
  const ProfileHandle live = arena.intern_by_content(keep);
  {
    const ProfileHandle dead = arena.intern_by_content(drop);
    EXPECT_TRUE(static_cast<bool>(dead));
  }  // `drop`'s record is now held only by its table entry
  arena.purge_dead();
  const auto stats = arena.stats();
  EXPECT_EQ(stats.entries, stats.live);
  EXPECT_GT(stats.purged, purged_before);
  // The live content must still intern to the SAME record after a purge.
  const ProfileHandle again = arena.intern_by_content(keep);
  EXPECT_EQ(again.record(), live.record());
  // The dead content re-interns to a fresh record (old one really was freed).
  const ProfileHandle fresh = arena.intern_by_content(drop);
  EXPECT_TRUE(static_cast<bool>(fresh));
  EXPECT_EQ(fresh.decode(), drop);
}

TEST(SnapshotArena, EpochAdvanceEventuallySweepsEveryShard) {
  auto& arena = SnapshotArena::instance();
  // Dead entries across many shards: content keys are hashes, so 256
  // distinct contents spread over the table's shards.
  for (int i = 0; i < 256; ++i) {
    Profile p;
    p.set(static_cast<ItemId>(i + 1), 0, 1.0);
    const ProfileHandle h = arena.intern_by_content(p);
  }
  // One epoch advance sweeps one shard; a full lap covers all of them.
  for (int i = 0; i < 64; ++i) arena.advance_epoch();
  const auto stats = arena.stats();
  EXPECT_EQ(stats.entries, stats.live);
  EXPECT_GT(stats.purged, 0u);
}

TEST(SnapshotArena, ThreadedInternAndInPlaceScoringStayIsolated) {
  // Exercised under TSan in CI: threads concurrently intern (by content,
  // as the wire codec does) and score the same records in place (the
  // shard workers' hot path), which must neither race nor differ from
  // scoring the decoded copies.
  constexpr int kThreads = 4;
  constexpr int kProfiles = 16;
  constexpr int kRounds = 200;
  constexpr Metric kMetrics[] = {Metric::kWup, Metric::kCosine, Metric::kJaccard,
                                 Metric::kOverlap, Metric::kPearson};
  std::vector<Profile> profiles;
  Rng seed_rng(77);
  for (int i = 0; i < kProfiles; ++i) {
    profiles.push_back(random_profile(seed_rng, 10, 64, i % 2 == 0));
    profiles.back().norm();  // shared across threads: warm the lazy norm
  }
  auto& arena = SnapshotArena::instance();
  std::vector<ProfileHandle> handles;
  for (const Profile& p : profiles) handles.push_back(arena.intern_by_content(p));
  // Expected scores of every (subject, candidate, metric), from the
  // decoded copies on this thread.
  std::vector<double> expected;
  for (const Profile& subject : profiles) {
    for (const Profile& candidate : profiles) {
      for (const Metric m : kMetrics) expected.push_back(similarity(m, subject, candidate));
    }
  }

  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t k = rng.index(kProfiles);
        const std::size_t s = rng.index(kProfiles);
        // Interning the same contents from many threads must converge on
        // the shared record.
        const ProfileHandle h = arena.intern_by_content(profiles[k]);
        if (h.record() != handles[k].record()) ++failures[t];
        for (std::size_t m = 0; m < std::size(kMetrics); ++m) {
          const double score = similarity(kMetrics[m], profiles[s], h.view());
          const double want = expected[(s * kProfiles + k) * std::size(kMetrics) + m];
          if (score != want) ++failures[t];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

TEST(SnapshotArena, ThreadedSweepRacesInternCopyDrop) {
  // The hostile schedule for the intrusive refcount: worker threads churn
  // content-interned handles (intern, copy, drop — each drop may leave the
  // table's reference as the last one) while a sweeper thread
  // continuously purges. TSan runs
  // this in CI; single-threaded it still pins the invariant that a record
  // can never be reclaimed while an outside handle holds it.
  constexpr int kThreads = 4;
  constexpr int kProfiles = 8;
  constexpr int kRounds = 300;
  std::vector<Profile> profiles;
  Rng seed_rng(78);
  for (int i = 0; i < kProfiles; ++i) {
    profiles.push_back(random_profile(seed_rng, 10, 64, false));
    profiles.back().norm();  // shared across threads: warm the lazy norm
  }

  auto& intern = SnapshotArena::instance();
  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      intern.advance_epoch();
      intern.purge_dead();
    }
  });

  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(2000 + t);
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t k = rng.index(kProfiles);
        ProfileHandle h = intern.intern_by_content(profiles[k]);
        ProfileHandle copy = h;        // retain
        ProfileHandle moved = std::move(h);  // steal
        h = copy;                      // re-retain through assignment
        // A sweep may have dropped the table entry between our intern and
        // now; the record we hold must stay valid and intact regardless.
        if (!(copy.decode() == profiles[k])) ++failures[t];
        if (moved.record() != copy.record()) ++failures[t];
      }  // all three handles drop here — possibly the last references
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  intern.purge_dead();
  const auto stats = intern.stats();
  EXPECT_EQ(stats.entries, stats.live);
}

TEST(SnapshotArena, ResidentBytesTracksEncodedPayload) {
  Profile small, large;
  small.set(1, 0, 1.0);
  for (int i = 1; i <= 300; ++i) large.set(i * 7, i, 0.5 + i * 1e-4);
  const auto cs = ProfileHandle::snapshot(small);
  const auto cl = ProfileHandle::snapshot(large);
  EXPECT_GE(cs->resident_bytes(), sizeof(CompactProfile));
  EXPECT_GT(cl->resident_bytes(), cl->encoded_bytes());
  EXPECT_GT(cl->encoded_bytes(), cs->encoded_bytes());
}

TEST(SnapshotArena, FreedSlotsAreRecycled) {
  // Snapshot-drop in a loop: the blob pool must hand back freed indices
  // instead of growing unboundedly (snapshots never touch the intern
  // table, so their lifetime is exactly the handle's).
  Profile p;
  p.set(1, 0, 1.0);
  const auto before = SnapshotArena::instance().stats();
  for (int i = 0; i < 3 * 4096; ++i) {
    const ProfileHandle h = ProfileHandle::snapshot(p);
    EXPECT_TRUE(static_cast<bool>(h));
  }
  const auto after = SnapshotArena::instance().stats();
  // 12k dead records cycled through; live count and slab storage must not
  // have grown by more than one warm chunk's worth.
  EXPECT_LE(after.blobs.live, before.blobs.live + 1);
  EXPECT_LE(after.blobs.chunks, before.blobs.chunks + 1);
}

TEST(SnapshotArena, CompactionRetiresEmptyChunksKeepsLiveAddressable) {
  // Fill several chunks, drop most records, keep a sparse survivor set.
  // Chunk retirement (the compaction step) must free the emptied slabs
  // while every surviving index still dereferences to intact contents.
  Rng rng(91);
  constexpr int kRecords = 3 * 4096;  // ~3 chunks of snapshot blobs
  std::vector<Profile> originals;
  std::vector<ProfileHandle> survivors;
  {
    std::vector<ProfileHandle> all;
    all.reserve(kRecords);
    for (int i = 0; i < kRecords; ++i) {
      Profile p;
      p.set(static_cast<ItemId>(i % 97 + 1), static_cast<Cycle>(i % 13), 1.0);
      all.push_back(ProfileHandle::snapshot(p));
      // Survivors cluster in the FIRST chunk's index range, so the later
      // chunks die whole and must actually be retired.
      if (i < 2048 && i % 256 == 0) {
        originals.push_back(p);
        survivors.push_back(all.back());
      }
    }
    // `all` drops here: every record except the survivors dies.
  }
  const auto stats = SnapshotArena::instance().stats();
  EXPECT_GT(stats.blobs.retired, 0u);  // at least one slab was compacted away
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    expect_bit_identical(originals[i], survivors[i]->decode());
  }
}

TEST(SnapshotArena, ContentInternDedupesAcrossDistinctVersions) {
  // The wire codec re-interns decoded snapshots BY CONTENT: two local
  // profiles with identical contents but different process-local versions
  // must collapse onto one arena record.
  Profile a, b;
  a.set(3, 1, 1.0);
  a.set(9, 2, 0.0);
  b.set(3, 1, 1.0);
  b.set(9, 2, 0.0);
  ASSERT_NE(a.version(), b.version());
  auto& arena = SnapshotArena::instance();
  const ProfileHandle ha = arena.intern_by_content(a);
  const ProfileHandle hb = arena.intern_by_content(b);
  EXPECT_EQ(ha.record(), hb.record());
  // The shared record reproduces the shared contents (version keeps the
  // first arrival's stamp — versions only key caches, never behavior).
  const Profile decoded = ha->decode();
  ASSERT_EQ(decoded, a);
  EXPECT_EQ(decoded.norm(), a.norm());
  EXPECT_EQ(decoded.liked_count(), a.liked_count());
  // Different contents stay distinct.
  Profile c;
  c.set(3, 1, 1.0);
  const ProfileHandle hc = arena.intern_by_content(c);
  EXPECT_NE(hc.record(), ha.record());
}

TEST(SnapshotArena, ThreadedContentInternAndSweepConverge) {
  // TSan companion for the content table: many threads decode "the same
  // wire bytes" while a sweeper purges — all arrivals of one content must
  // observe intact records, and dead contents must eventually be swept.
  constexpr int kThreads = 4;
  constexpr int kProfiles = 8;
  constexpr int kRounds = 200;
  std::vector<Profile> profiles;
  Rng seed_rng(79);
  for (int i = 0; i < kProfiles; ++i) {
    profiles.push_back(random_profile(seed_rng, 10, 64, false));
    // Profiles shared across threads have their lazy norm warmed first
    // (the same discipline as ItemProfileRef): encoding reads norm().
    profiles.back().norm();
  }
  auto& arena = SnapshotArena::instance();
  std::atomic<bool> stop{false};
  std::thread sweeper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      arena.advance_epoch();
      arena.purge_dead();
    }
  });
  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(3000 + t);
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t k = rng.index(kProfiles);
        const ProfileHandle h = arena.intern_by_content(profiles[k]);
        if (!(h.decode() == profiles[k])) ++failures[t];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  sweeper.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  arena.purge_dead();
  const auto stats = arena.stats();
  EXPECT_EQ(stats.entries, stats.live);
}

// ---- DescriptorRef --------------------------------------------------------

TEST(DescriptorRef, NullAndInlineEncodingsCostNoArenaRecord) {
  const auto before = SnapshotArena::instance().stats();
  // Null: default-constructed ≡ (kNoCycle, no profile).
  const DescriptorRef null_ref;
  EXPECT_TRUE(null_ref.is_null());
  EXPECT_EQ(null_ref.timestamp(), kNoCycle);
  EXPECT_FALSE(null_ref.has_profile());
  // Profile-less timestamps store inline — bootstrap's t=-1 in particular.
  for (const Cycle t : {Cycle{-1}, Cycle{0}, Cycle{12345}, Cycle{-40000},
                        Cycle{(1 << 30) - 1}, Cycle{-(1 << 30)}}) {
    const DescriptorRef r = DescriptorRef::make(t, ProfileHandle());
    EXPECT_FALSE(r.is_null());
    EXPECT_EQ(r.timestamp(), t);
    EXPECT_FALSE(r.has_profile());
    EXPECT_EQ(r.profile_size(), 0u);
    EXPECT_TRUE(r.profile() == nullptr);
  }
  const auto after = SnapshotArena::instance().stats();
  EXPECT_EQ(after.stamps.live, before.stamps.live);
}

TEST(DescriptorRef, StampRecordsShareTimestampAndBlobByRefcount) {
  Profile p;
  p.set(4, 2, 1.0);
  const ProfileHandle snapshot = ProfileHandle::snapshot(p);
  const auto before = SnapshotArena::instance().stats();
  {
    const DescriptorRef a = DescriptorRef::make(17, snapshot);
    const DescriptorRef b = a;  // copy: shares the record, bumps refs
    DescriptorRef c;
    c = b;
    EXPECT_EQ(a.timestamp(), 17);
    EXPECT_EQ(c.timestamp(), 17);
    EXPECT_TRUE(c.has_profile());
    EXPECT_EQ(c.profile().version(), p.version());
    EXPECT_EQ(c.profile_size(), p.size());
    expect_bit_identical(p, c.profile().decode());
    EXPECT_EQ(c.view().size, p.size());
    const auto during = SnapshotArena::instance().stats();
    EXPECT_EQ(during.stamps.live, before.stamps.live + 1);  // ONE record for 3 copies
  }
  // Last copy dropped: the stamp record frees immediately (no epoch wait).
  const auto after = SnapshotArena::instance().stats();
  EXPECT_EQ(after.stamps.live, before.stamps.live);
  // The blob outlives the stamps through our snapshot handle.
  expect_bit_identical(p, snapshot.decode());
}

TEST(DescriptorRef, MoveTransfersOwnershipWithoutTouchingRefcount) {
  Profile p;
  p.set(1, 0, 1.0);
  DescriptorRef a = DescriptorRef::make(5, ProfileHandle::snapshot(p));
  const auto live_before = SnapshotArena::instance().stats().stamps.live;
  DescriptorRef b = std::move(a);
  EXPECT_TRUE(a.is_null());
  EXPECT_EQ(b.timestamp(), 5);
  EXPECT_EQ(SnapshotArena::instance().stats().stamps.live, live_before);
}

}  // namespace
}  // namespace whatsup
