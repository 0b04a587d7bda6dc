// Similarity metrics between profiles.
//
// The paper's WUP metric (§II) is an *asymmetric* cosine variant:
//
//   Similarity(n, c) = sub(Pn,Pc)·Pc / (‖sub(Pn,Pc)‖ ‖Pc‖)
//
// where sub(Pn,Pc) is the restriction of Pn to the items present in Pc.
// For binary user profiles this divides the number of items liked by both
// by sqrt(#items liked by n that c rated) * sqrt(#items liked by c): it
// rewards common likes, penalises candidates who dislike what the subject
// likes, and favours candidates with short, selective profiles (cold-start
// boost). Cosine, Jaccard, overlap and Pearson are provided as baselines
// (§VI cites cosine as the strongest conventional metric).
#pragma once

#include <string>

#include "profile/profile.hpp"

namespace whatsup {

enum class Metric {
  kWup,
  kCosine,
  kJaccard,
  kOverlap,
  kPearson,
};

std::string to_string(Metric metric);

// Every metric takes the candidate as a ProfileView (profile/profile.hpp):
// a decoded Profile converts implicitly, and the hot paths pass snapshot
// records scored in place (net::Descriptor::profile_view()). A view of a
// record and a view of its decoded copy score bit-identically.

// Asymmetric WUP metric; `subject` is the node doing the selection (or the
// item profile in BEEP's orientation step), `candidate` the profile under
// evaluation. Returns 0 when either restriction is empty.
double wup_similarity(const Profile& subject, const ProfileView& candidate);

// Classic cosine over the common items, normalised by full profile norms.
double cosine_similarity(const Profile& a, const ProfileView& b);

// |liked(a) ∩ liked(b)| / |liked(a) ∪ liked(b)| with liked = score > 0.5.
double jaccard_similarity(const Profile& a, const ProfileView& b);

// dot(common) / min(‖a‖, ‖b‖)², clamped to [0, 1].
double overlap_similarity(const Profile& a, const ProfileView& b);

// Pearson correlation over co-rated items, rescaled to [0, 1].
double pearson_similarity(const Profile& a, const ProfileView& b);

// Dispatch by metric; all results are in [0, 1]. The view overload is the
// hot path (view merges, BEEP orientation, convergence probes) and counts
// `profile.similarity.evals`; the Profile overload scores decoded copies.
double similarity(Metric metric, const Profile& subject, const ProfileView& candidate);
double similarity(Metric metric, const Profile& subject, const Profile& candidate);

}  // namespace whatsup
