#include "profile/similarity.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "net/message.hpp"
#include "profile/compact.hpp"

namespace whatsup {
namespace {

Profile liked(std::initializer_list<ItemId> likes,
              std::initializer_list<ItemId> dislikes = {}) {
  Profile p;
  for (ItemId id : likes) p.set(id, 0, 1.0);
  for (ItemId id : dislikes) p.set(id, 0, 0.0);
  return p;
}

// --- WUP metric (paper §II) ------------------------------------------------

TEST(WupMetric, MatchesClosedFormOnBinaryProfiles) {
  // n likes {1,2,3}; c rates {1,2,4}, likes {1,2}.
  // common likes = 2; liked-by-n rated-by-c = 2; liked by c = 2.
  const Profile n = liked({1, 2, 3});
  const Profile c = liked({1, 2}, {4});
  EXPECT_NEAR(wup_similarity(n, c), 2.0 / (std::sqrt(2.0) * std::sqrt(2.0)), 1e-12);
}

TEST(WupMetric, PenalizesCandidatesWhoDislikeWhatSubjectLikes) {
  const Profile n = liked({1, 2, 3, 4});
  const Profile agreeing = liked({1, 2});            // likes 2 of n's items
  const Profile spammy = liked({1, 2}, {3, 4});      // same likes, but dislikes the rest
  EXPECT_GT(wup_similarity(n, agreeing), wup_similarity(n, spammy));
}

TEST(WupMetric, FavorsRestrictiveCandidates) {
  // Both candidates like the two items n likes, but one likes 6 extra items.
  const Profile n = liked({1, 2});
  const Profile restrictive = liked({1, 2});
  const Profile promiscuous = liked({1, 2, 10, 11, 12, 13, 14, 15});
  EXPECT_GT(wup_similarity(n, restrictive), wup_similarity(n, promiscuous));
}

TEST(WupMetric, ColdStartSmallProfilesScoreHigh) {
  // A joining node with a tiny popular profile is attractive to others —
  // the §II-D property that integrates newcomers quickly.
  const Profile established = liked({1, 2, 3, 4, 5, 6, 7, 8});
  const Profile newcomer = liked({1});           // one popular common item
  const Profile peer = liked({1, 20, 21, 22, 23, 24, 25, 26});
  EXPECT_GT(wup_similarity(established, newcomer), wup_similarity(established, peer));
}

TEST(WupMetric, AsymmetricByDesign) {
  const Profile a = liked({1, 2, 3, 4, 5, 6});
  const Profile b = liked({1, 2});
  EXPECT_NE(wup_similarity(a, b), wup_similarity(b, a));
}

TEST(WupMetric, PerfectMatchIsOne) {
  const Profile p = liked({1, 2, 3});
  EXPECT_DOUBLE_EQ(wup_similarity(p, p), 1.0);
}

TEST(WupMetric, DisjointProfilesScoreZero) {
  EXPECT_EQ(wup_similarity(liked({1, 2}), liked({3, 4})), 0.0);
}

TEST(WupMetric, EmptyProfilesScoreZero) {
  EXPECT_EQ(wup_similarity(Profile{}, liked({1})), 0.0);
  EXPECT_EQ(wup_similarity(liked({1}), Profile{}), 0.0);
  EXPECT_EQ(wup_similarity(Profile{}, Profile{}), 0.0);
}

TEST(WupMetric, WorksWithRealValuedItemProfiles) {
  Profile item;  // item profile with fractional path-aggregated scores
  item.set(1, 0, 0.75);
  item.set(2, 0, 0.25);
  const Profile user = liked({1}, {2});
  const double s = wup_similarity(item, user);
  EXPECT_GT(s, 0.0);
  EXPECT_LE(s, 1.0);
}

// --- Cosine ---------------------------------------------------------------

TEST(Cosine, SymmetricAndBounded) {
  const Profile a = liked({1, 2, 3});
  const Profile b = liked({2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(cosine_similarity(a, b), cosine_similarity(b, a));
  EXPECT_NEAR(cosine_similarity(a, b), 2.0 / (std::sqrt(3.0) * std::sqrt(4.0)), 1e-12);
}

TEST(Cosine, IdenticalIsOne) {
  const Profile p = liked({1, 2, 3});
  EXPECT_DOUBLE_EQ(cosine_similarity(p, p), 1.0);
}

// --- Jaccard / overlap / Pearson -------------------------------------------

TEST(Jaccard, CountsLikedSets) {
  const Profile a = liked({1, 2, 3});
  const Profile b = liked({2, 3, 4});
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, b), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(jaccard_similarity(a, a), 1.0);
  EXPECT_EQ(jaccard_similarity(Profile{}, Profile{}), 0.0);
}

TEST(Overlap, BoundedAndOneOnSubset) {
  const Profile small = liked({1, 2});
  const Profile big = liked({1, 2, 3, 4, 5});
  EXPECT_NEAR(overlap_similarity(small, big), 1.0, 1e-9);
}

TEST(Pearson, PerfectAgreementAndDisagreement) {
  Profile a, b, c;
  for (ItemId id : {1, 2, 3, 4}) {
    const double score = (id % 2 == 0) ? 1.0 : 0.0;
    a.set(id, 0, score);
    b.set(id, 0, score);
    c.set(id, 0, 1.0 - score);
  }
  EXPECT_NEAR(pearson_similarity(a, b), 1.0, 1e-9);   // r=+1 -> 1
  EXPECT_NEAR(pearson_similarity(a, c), 0.0, 1e-9);   // r=-1 -> 0
}

TEST(Pearson, TooFewCoRatedItemsIsZero) {
  EXPECT_EQ(pearson_similarity(liked({1}), liked({1})), 0.0);
}

// --- Property sweep over all metrics ----------------------------------------

class MetricProperty : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricProperty, BoundedInUnitIntervalOnRandomProfiles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 77);
  for (int trial = 0; trial < 500; ++trial) {
    Profile a, b;
    const auto na = rng.index(12);
    const auto nb = rng.index(12);
    for (std::size_t i = 0; i < na; ++i) {
      a.set(rng.index(20), 0, rng.bernoulli(0.5) ? 1.0 : 0.0);
    }
    for (std::size_t i = 0; i < nb; ++i) {
      b.set(rng.index(20), 0, rng.bernoulli(0.5) ? 1.0 : 0.0);
    }
    const double s = similarity(GetParam(), a, b);
    ASSERT_GE(s, 0.0) << to_string(GetParam());
    ASSERT_LE(s, 1.0) << to_string(GetParam());
  }
}

TEST_P(MetricProperty, EmptyProfilesNeverCrash) {
  const Profile empty;
  const Profile p = liked({1, 2});
  EXPECT_EQ(similarity(GetParam(), empty, empty), 0.0);
  EXPECT_GE(similarity(GetParam(), p, empty), 0.0);
  EXPECT_GE(similarity(GetParam(), empty, p), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricProperty,
                         ::testing::Values(Metric::kWup, Metric::kCosine,
                                           Metric::kJaccard, Metric::kOverlap,
                                           Metric::kPearson),
                         [](const auto& info) { return to_string(info.param); });

// --- In-place scoring of snapshot records ----------------------------------
//
// The hot paths score a candidate straight from its snapshot record (raw
// ids, 1-bit score mask or raw doubles); cold paths score a decoded copy.
// Both must give the same bits for every metric.

constexpr Metric kAllMetrics[] = {Metric::kWup, Metric::kCosine, Metric::kJaccard,
                                  Metric::kOverlap, Metric::kPearson};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

Profile random_profile(Rng& rng, std::size_t size, ItemId universe, bool binary) {
  Profile p;
  while (p.size() < size) {
    const double score = binary ? (rng.bernoulli(0.6) ? 1.0 : 0.0) : rng.uniform();
    p.set(rng.index(universe) + 1, static_cast<Cycle>(rng.index(40)), score);
  }
  return p;
}

void expect_in_place_equals_decoded(const Profile& subject, const ProfileHandle& h) {
  const Profile decoded = h.decode();
  for (const Metric m : kAllMetrics) {
    const double in_place = similarity(m, subject, h.view());
    EXPECT_EQ(bits(in_place), bits(similarity(m, subject, decoded)))
        << to_string(m) << " subject " << subject.size() << " candidate "
        << decoded.size();
  }
  EXPECT_EQ(bits(wup_similarity(subject, h.view())), bits(wup_similarity(subject, decoded)));
  EXPECT_EQ(bits(cosine_similarity(subject, h.view())),
            bits(cosine_similarity(subject, decoded)));
  EXPECT_EQ(bits(jaccard_similarity(subject, h.view())),
            bits(jaccard_similarity(subject, decoded)));
  EXPECT_EQ(bits(overlap_similarity(subject, h.view())),
            bits(overlap_similarity(subject, decoded)));
  EXPECT_EQ(bits(pearson_similarity(subject, h.view())),
            bits(pearson_similarity(subject, decoded)));
}

TEST(InPlaceScoring, BitIdenticalToDecodedForEveryMetricAndSize) {
  // Sizes straddle the 8-id block width of the vectorized merge (7, 8, 9)
  // and reach past a full profile window (300); subjects and candidates
  // share a small id universe so that matches are frequent.
  Rng rng(4242);
  const std::size_t sizes[] = {0, 1, 7, 8, 9, 300};
  for (const bool binary : {true, false}) {
    for (const std::size_t cand_size : sizes) {
      for (const std::size_t subj_size : sizes) {
        for (int trial = 0; trial < 4; ++trial) {
          const ItemId universe = 2 * std::max<std::size_t>({cand_size, subj_size, 4});
          const Profile subject = random_profile(rng, subj_size, universe, rng.bernoulli(0.5));
          const Profile candidate = random_profile(rng, cand_size, universe, binary);
          const ProfileHandle h = CompactProfile::encode(candidate);
          ASSERT_EQ(h.view().score_mask != nullptr, binary || cand_size == 0);
          expect_in_place_equals_decoded(subject, h);
        }
      }
    }
  }
}

TEST(InPlaceScoring, InlineRecordsScoreLikeDecoded) {
  // One- and two-entry records fit the record's inline words (no heap
  // spill); their views point into the slab slot itself.
  Rng rng(4343);
  const Profile subject = random_profile(rng, 9, 12, true);
  for (const bool binary : {true, false}) {
    for (const std::size_t size : {std::size_t{1}, std::size_t{2}}) {
      const Profile candidate = random_profile(rng, size, 6, binary);
      const ProfileHandle h = CompactProfile::encode(candidate);
      if (binary) EXPECT_EQ(h->resident_bytes(), sizeof(CompactProfile));
      expect_in_place_equals_decoded(subject, h);
    }
  }
  Profile one;
  one.set(3, 0, 1.0);
  EXPECT_EQ(CompactProfile::encode(one)->resident_bytes(), sizeof(CompactProfile));
}

TEST(InPlaceScoring, NullAndEmptySnapshotsScoreLikeEmptyProfiles) {
  const Profile subject = liked({1, 2, 3}, {4});
  const Profile empty;
  const net::Descriptor bootstrap{7, -1, nullptr};
  const net::Descriptor empty_snapshot{7, 3, empty_profile_handle()};
  for (const Metric m : kAllMetrics) {
    const std::uint64_t want = bits(similarity(m, subject, empty));
    EXPECT_EQ(bits(similarity(m, subject, ProfileHandle().view())), want) << to_string(m);
    EXPECT_EQ(bits(similarity(m, subject, empty_profile_handle().view())), want)
        << to_string(m);
    EXPECT_EQ(bits(similarity(m, subject, bootstrap.profile_view())), want) << to_string(m);
    EXPECT_EQ(bits(similarity(m, subject, empty_snapshot.profile_view())), want)
        << to_string(m);
    EXPECT_EQ(bits(similarity(m, subject, net::Descriptor().profile_view())), want)
        << to_string(m);
  }
  expect_in_place_equals_decoded(subject, ProfileHandle());
  expect_in_place_equals_decoded(subject, empty_profile_handle());
}

TEST(MetricNames, RoundTrip) {
  EXPECT_EQ(to_string(Metric::kWup), "wup");
  EXPECT_EQ(to_string(Metric::kCosine), "cosine");
  EXPECT_EQ(to_string(Metric::kJaccard), "jaccard");
  EXPECT_EQ(to_string(Metric::kOverlap), "overlap");
  EXPECT_EQ(to_string(Metric::kPearson), "pearson");
}

}  // namespace
}  // namespace whatsup
