#include "profile/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/registry.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define WHATSUP_X86_DISPATCH 1
#endif

namespace whatsup {

namespace {

// ---- Merge kernel -----------------------------------------------------------
//
// Every metric reduces to a two-pointer merge of two id-sorted profiles
// that hands each common item's (subject score, candidate score) pair to
// the metric's accumulator, in ascending id order. The merge is templated
// on how it reads the candidate's scores — decoded doubles, or a snapshot
// record's 1-bit mask expanded to exactly 0.0 / 1.0 — so a record scored
// in place and its decoded copy run the same arithmetic on the same
// values in the same order: every similarity is bit-identical.
//
// The scalar loop uses branch-free pointer advances (the compiler lowers
// the conditional increments to cmov/setcc) with a branchy — but rare —
// accumulate on matches; measured faster than both the fully branchy and
// the fully gated variants on random interleaves.
//
// On x86-64 an AVX-512 path intersects 8-id blocks at a time: compare the
// `a` block against all 8 cyclic rotations of the `b` block, collect the
// match bits, and process matches in ascending a-lane order. Ascending
// lane order equals ascending id order, so the accumulation order — and
// therefore every similarity value — is the scalar merge's. Selected at
// runtime via __builtin_cpu_supports.

struct DoubleLanes {
  const double* p;
  double operator[](std::size_t i) const { return p[i]; }
};

struct MaskLanes {
  const std::uint8_t* p;
  double operator[](std::size_t i) const { return mask_score(p, i); }
};

// Scalar merge from positions (i, j) to the end of either side.
template <typename Lanes, typename OnMatch>
inline void merge_scalar(const Profile& a, const ProfileView& b, Lanes sb,
                         std::size_t i, std::size_t j, OnMatch& on_match) {
  const ItemId* ia = a.ids().data();
  const ItemId* ib = b.ids;
  const double* sa = a.scores().data();
  const std::size_t na = a.size(), nb = b.size;
  while (i < na && j < nb) {
    const ItemId da = ia[i], db = ib[j];
    if (da == db) on_match(sa[i], sb[j]);
    i += da <= db ? 1 : 0;
    j += db <= da ? 1 : 0;
  }
}

#ifdef WHATSUP_X86_DISPATCH

// Match bits for one 8×8 block pair: compare `va` against all 8 cyclic
// rotations of `vb`. Rotation r lane l set ⟺ a[i+l] == b[j + ((l+r)&7)].
// Returns the l-major transpose (bit 8l+r), so ascending bit position scans
// matches in ascending a-lane order.
__attribute__((target("avx512f"))) inline std::uint64_t block_matches(
    __m512i va, __m512i vb) {
  std::uint64_t rows = 0;
  // Independent permutes (no serial rotate chain) keep the 8 compares in
  // flight together.
  const __m512i base = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i seven = _mm512_set1_epi64(7);
#define WHATSUP_ROT(r)                                                      \
  {                                                                         \
    const __m512i idx =                                                     \
        _mm512_and_epi64(_mm512_add_epi64(base, _mm512_set1_epi64(r)), seven); \
    const __m512i rot = _mm512_permutexvar_epi64(idx, vb);                  \
    rows |= static_cast<std::uint64_t>(_mm512_cmpeq_epi64_mask(va, rot))    \
            << (8 * (r));                                                   \
  }
  WHATSUP_ROT(0)
  WHATSUP_ROT(1)
  WHATSUP_ROT(2)
  WHATSUP_ROT(3)
  WHATSUP_ROT(4)
  WHATSUP_ROT(5)
  WHATSUP_ROT(6)
  WHATSUP_ROT(7)
#undef WHATSUP_ROT
  if (rows == 0) return 0;
  // 8×8 bit-matrix transpose (Hacker's Delight §7-3): r-major → l-major.
  std::uint64_t t = rows, tmp;
  tmp = (t ^ (t >> 7)) & 0x00AA00AA00AA00AAULL;
  t ^= tmp ^ (tmp << 7);
  tmp = (t ^ (t >> 14)) & 0x0000CCCC0000CCCCULL;
  t ^= tmp ^ (tmp << 14);
  tmp = (t ^ (t >> 28)) & 0x00000000F0F0F0F0ULL;
  t ^= tmp ^ (tmp << 28);
  return t;
}

template <typename Lanes, typename OnMatch>
__attribute__((target("avx512f"))) void merge_avx512(const Profile& a,
                                                     const ProfileView& b,
                                                     Lanes sb, OnMatch& on_match) {
  const ItemId* ia = a.ids().data();
  const ItemId* ib = b.ids;
  const double* sa = a.scores().data();
  const std::size_t na = a.size(), nb = b.size;
  std::size_t i = 0, j = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m512i va = _mm512_loadu_si512(ia + i);
    const __m512i vb = _mm512_loadu_si512(ib + j);
    std::uint64_t matches = block_matches(va, vb);
    while (matches != 0) {
      const int t = __builtin_ctzll(matches);
      matches &= matches - 1;
      const int l = t >> 3, r = t & 7;
      on_match(sa[i + static_cast<std::size_t>(l)],
               sb[j + static_cast<std::size_t>((l + r) & 7)]);
    }
    const ItemId amax = ia[i + 7], bmax = ib[j + 7];
    i += amax <= bmax ? 8 : 0;
    j += bmax <= amax ? 8 : 0;
  }
  merge_scalar(a, b, sb, i, j, on_match);
}

const bool kHaveAvx512 = __builtin_cpu_supports("avx512f") != 0;

#endif  // WHATSUP_X86_DISPATCH

template <typename Lanes, typename OnMatch>
inline void merge(const Profile& a, const ProfileView& b, Lanes sb,
                  OnMatch& on_match) {
#ifdef WHATSUP_X86_DISPATCH
  if (kHaveAvx512) {
    merge_avx512(a, b, sb, on_match);
    return;
  }
#endif
  merge_scalar(a, b, sb, 0, 0, on_match);
}

// Calls on_match(score in a, score in b) for every item both profiles
// rate, in ascending id order.
template <typename OnMatch>
inline void for_each_common(const Profile& a, const ProfileView& b,
                            OnMatch&& on_match) {
  if (b.score_mask != nullptr) {
    merge(a, b, MaskLanes{b.score_mask}, on_match);
  } else {
    merge(a, b, DoubleLanes{b.scores}, on_match);
  }
}

double common_dot(const Profile& a, const ProfileView& b) {
  double dot = 0.0;
  for_each_common(a, b, [&](double va, double vb) { dot += va * vb; });
  return dot;
}

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

obs::MetricId similarity_evals_metric() {
  static const obs::MetricId id = obs::counter("profile.similarity.evals");
  return id;
}

double dispatch(Metric metric, const Profile& subject, const ProfileView& candidate) {
  switch (metric) {
    case Metric::kWup: return wup_similarity(subject, candidate);
    case Metric::kCosine: return cosine_similarity(subject, candidate);
    case Metric::kJaccard: return jaccard_similarity(subject, candidate);
    case Metric::kOverlap: return overlap_similarity(subject, candidate);
    case Metric::kPearson: return pearson_similarity(subject, candidate);
  }
  return 0.0;
}

}  // namespace

std::string to_string(Metric metric) {
  switch (metric) {
    case Metric::kWup: return "wup";
    case Metric::kCosine: return "cosine";
    case Metric::kJaccard: return "jaccard";
    case Metric::kOverlap: return "overlap";
    case Metric::kPearson: return "pearson";
  }
  return "unknown";
}

double wup_similarity(const Profile& subject, const ProfileView& candidate) {
  double dot = 0.0;        // dot(sub(a,b), b)
  double sub_norm2 = 0.0;  // ‖sub(a,b)‖²
  for_each_common(subject, candidate, [&](double va, double vb) {
    dot += va * vb;
    sub_norm2 += va * va;
  });
  if (sub_norm2 <= 0.0) return 0.0;
  const double cand_norm = candidate.norm;
  if (cand_norm <= 0.0) return 0.0;
  return clamp01(dot / (std::sqrt(sub_norm2) * cand_norm));
}

double cosine_similarity(const Profile& a, const ProfileView& b) {
  const double na = a.norm();
  const double nb = b.norm;
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return clamp01(common_dot(a, b) / (na * nb));
}

double jaccard_similarity(const Profile& a, const ProfileView& b) {
  std::size_t both_liked = 0;
  for_each_common(a, b, [&](double va, double vb) {
    if (va > 0.5 && vb > 0.5) ++both_liked;
  });
  const std::size_t uni = a.liked_count() + b.liked - both_liked;
  if (uni == 0) return 0.0;
  return static_cast<double>(both_liked) / static_cast<double>(uni);
}

double overlap_similarity(const Profile& a, const ProfileView& b) {
  const double na = a.norm();
  const double nb = b.norm;
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  // dot / min(‖a‖,‖b‖)² keeps binary profiles in [0,1].
  const double m = std::min(na, nb);
  return clamp01(common_dot(a, b) / (m * m));
}

double pearson_similarity(const Profile& a, const ProfileView& b) {
  // Full co-rating statistics.
  double dot = 0.0, sum_a = 0.0, sum_b = 0.0, sum_a2 = 0.0, sum_b2 = 0.0;
  std::size_t common = 0;
  for_each_common(a, b, [&](double va, double vb) {
    dot += va * vb;
    sum_a += va;
    sum_b += vb;
    sum_a2 += va * va;
    sum_b2 += vb * vb;
    ++common;
  });
  if (common < 2) return 0.0;
  const auto n = static_cast<double>(common);
  const double cov = dot - sum_a * sum_b / n;
  const double var_a = sum_a2 - sum_a * sum_a / n;
  const double var_b = sum_b2 - sum_b * sum_b / n;
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  const double r = cov / std::sqrt(var_a * var_b);
  return clamp01((r + 1.0) / 2.0);
}

double similarity(Metric metric, const Profile& subject, const ProfileView& candidate) {
  if (obs::enabled()) [[unlikely]] obs::add(similarity_evals_metric());
  return dispatch(metric, subject, candidate);
}

double similarity(Metric metric, const Profile& subject, const Profile& candidate) {
  return dispatch(metric, subject, ProfileView(candidate));
}

}  // namespace whatsup
