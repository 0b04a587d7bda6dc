// Property tests for the profile stat caches (norm / liked_count /
// version), the snapshot cache built on top of them, and the
// obfuscated-profile cache. The contract under test: cached values are
// indistinguishable — bit-for-bit — from recomputing everything from
// scratch, after ARBITRARY sequences of set / fold / fold_profile /
// purge_older_than.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "profile/obfuscation.hpp"
#include "profile/profile.hpp"
#include "profile/snapshot.hpp"

namespace whatsup {
namespace {

// Fresh recomputation of the cached stats, straight from the entry arrays.
double fresh_norm(const Profile& p) {
  double sum = 0.0;
  for (const double s : p.scores()) sum += s * s;
  return std::sqrt(sum);
}

std::size_t fresh_liked(const Profile& p) {
  std::size_t liked = 0;
  for (const double s : p.scores()) liked += s > 0.5 ? 1 : 0;
  return liked;
}

void expect_caches_fresh(const Profile& p) {
  // Bit-equality, not tolerance: norm() recomputes with the same summation
  // order as a fresh scan, and liked_count is exact integer bookkeeping.
  EXPECT_EQ(p.norm(), fresh_norm(p));
  EXPECT_EQ(p.liked_count(), fresh_liked(p));
  EXPECT_EQ(p.version() == 0, p.empty());
}

Profile random_profile(Rng& rng, std::size_t entries, ItemId universe) {
  Profile p;
  for (std::size_t i = 0; i < entries; ++i) {
    p.set(rng.index(universe) + 1, static_cast<Cycle>(rng.index(40)), rng.uniform());
  }
  return p;
}

TEST(ProfileCache, CachesMatchFreshRecomputeUnderRandomOps) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    Profile p;
    std::uint64_t last_version = p.version();
    EXPECT_EQ(last_version, 0u);
    for (int op = 0; op < 200; ++op) {
      const Profile before = p;
      switch (rng.index(4)) {
        case 0:
          p.set(rng.index(60) + 1, static_cast<Cycle>(rng.index(40)),
                rng.bernoulli(0.5) ? 1.0 : 0.0);
          break;
        case 1:
          p.fold(rng.index(60) + 1, static_cast<Cycle>(rng.index(40)), rng.uniform());
          break;
        case 2:
          p.fold_profile(random_profile(rng, rng.index(20), 60));
          break;
        case 3:
          p.purge_older_than(static_cast<Cycle>(rng.index(45)));
          break;
      }
      expect_caches_fresh(p);
      // Version moves exactly when the contents may have changed; equal
      // versions must imply equal contents.
      if (p.version() == before.version()) EXPECT_EQ(p, before);
      last_version = p.version();
    }
  }
}

TEST(ProfileCache, NoOpPurgeKeepsVersion) {
  Profile p;
  p.set(1, 10, 1.0);
  p.set(2, 20, 0.0);
  const std::uint64_t v = p.version();
  p.purge_older_than(5);  // removes nothing
  EXPECT_EQ(p.version(), v);
  p.purge_older_than(15);  // removes id 1
  EXPECT_NE(p.version(), v);
  EXPECT_EQ(p.size(), 1u);
  expect_caches_fresh(p);
}

TEST(ProfileCache, EmptyAlwaysVersionZero) {
  Profile p;
  EXPECT_EQ(p.version(), 0u);
  p.set(1, 0, 1.0);
  EXPECT_NE(p.version(), 0u);
  p.purge_older_than(100);  // empties the profile
  EXPECT_EQ(p.version(), 0u);
  p.set(2, 0, 1.0);
  p.clear();
  EXPECT_EQ(p.version(), 0u);
}

TEST(ProfileCache, EqualVersionImpliesEqualContentAcrossInstances) {
  // Two profiles built through identical operations still get DIFFERENT
  // versions (stamps are globally unique), so version collisions cannot
  // alias distinct contents.
  Profile a, b;
  a.set(1, 0, 1.0);
  b.set(1, 0, 1.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.version(), b.version());
  // Copies share both contents and version.
  const Profile c = a;
  EXPECT_EQ(c, a);
  EXPECT_EQ(c.version(), a.version());
}

TEST(ProfileCache, FoldProfileMatchesPerEntryFolds) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    Profile item = random_profile(rng, rng.index(30), 80);
    const Profile user = random_profile(rng, rng.index(30), 80);
    Profile reference = item;
    for (std::size_t i = 0; i < user.size(); ++i) {
      const ProfileEntry e = user.entry(i);
      reference.fold(e.id, e.timestamp, e.score);
    }
    item.fold_profile(user);  // single linear merge
    EXPECT_EQ(item, reference);
    EXPECT_EQ(item.norm(), reference.norm());
    EXPECT_EQ(item.liked_count(), reference.liked_count());
  }
}

TEST(SnapshotCache, StampReusedPerCycleAndVersion) {
  const SnapshotArena& arena = SnapshotArena::instance();
  ProfileSnapshotCache cache;
  Profile p;
  p.set(1, 0, 1.0);
  const DescriptorRef first = cache.stamp(4, p);
  const std::size_t stamps = arena.stats().stamps.live;

  // Same (cycle, version): the same stamp record, no new one.
  const DescriptorRef again = cache.stamp(4, p);
  EXPECT_EQ(arena.stats().stamps.live, stamps);
  EXPECT_EQ(again.timestamp(), 4);
  EXPECT_EQ(again.profile().record(), first.profile().record());

  // Next cycle: a new timestamp on the same blob.
  const DescriptorRef next = cache.stamp(5, p);
  EXPECT_EQ(arena.stats().stamps.live, stamps + 1);
  EXPECT_EQ(next.timestamp(), 5);
  EXPECT_EQ(next.profile().record(), first.profile().record());

  // New version: a new blob with the new contents; the old one is immutable.
  p.set(2, 0, 0.0);
  const DescriptorRef changed = cache.stamp(5, p);
  EXPECT_NE(changed.profile().record(), first.profile().record());
  EXPECT_EQ(changed.profile().decode(), p);
  EXPECT_EQ(first.profile().decode(),
            (([] { Profile q; q.set(1, 0, 1.0); return q; })()));

  // Empty profiles stamp the shared empty snapshot.
  ProfileSnapshotCache empty_cache;
  EXPECT_EQ(empty_cache.stamp(5, Profile{}).profile().record(),
            empty_profile_handle().record());
}

TEST(SnapshotCache, OwnsOneBlobPerVersionFreedWithItsLastDescriptor) {
  // The cache, not an arena table, owns each profile generation: one blob
  // per version however many cycles ship it, and a superseded blob's slot
  // returns to the arena the moment its last descriptor drops (no
  // purge_dead, no epoch advance).
  const SnapshotArena& arena = SnapshotArena::instance();
  ProfileSnapshotCache cache;
  Profile p;
  p.set(1, 0, 1.0);
  const std::size_t blobs = arena.stats().blobs.live;

  std::vector<DescriptorRef> shipped;
  for (Cycle c = 0; c < 5; ++c) shipped.push_back(cache.stamp(c, p));
  EXPECT_EQ(arena.stats().blobs.live, blobs + 1);
  for (const DescriptorRef& d : shipped) {
    EXPECT_EQ(d.profile().record(), shipped.front().profile().record());
  }

  // A like: the cache encodes the new generation and lets go of the old
  // one, which lives on only through the descriptors already shipped.
  p.set(2, 0, 1.0);
  const DescriptorRef current = cache.stamp(5, p);
  EXPECT_EQ(arena.stats().blobs.live, blobs + 2);
  shipped.clear();
  EXPECT_EQ(arena.stats().blobs.live, blobs + 1);
  EXPECT_EQ(current.profile().decode(), p);
}

TEST(ObfuscationCache, MatchesDirectObfuscation) {
  Rng rng(21);
  ObfuscationConfig config;
  config.flip_prob = 0.3;
  config.drop_prob = 0.2;
  config.epoch_length = 5;
  ObfuscatedProfileCache cache;
  Profile p = random_profile(rng, 30, 100);
  for (Cycle now = 0; now < 40; ++now) {
    EXPECT_EQ(cache.get(p, config, 7, now), obfuscate_profile(p, config, 7, now));
    if (rng.bernoulli(0.25)) p.set(rng.index(100) + 1, now, 1.0);
    EXPECT_EQ(cache.get(p, config, 7, now), obfuscate_profile(p, config, 7, now));
  }
}

}  // namespace
}  // namespace whatsup
