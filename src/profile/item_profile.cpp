#include "profile/item_profile.hpp"

#include <utility>

namespace whatsup {

namespace {

const Profile& empty_profile() {
  // A default-constructed Profile is born with a clean (non-dirty) norm
  // cache, so sharing this instance across threads is safe.
  static const Profile kEmpty;
  return kEmpty;
}

}  // namespace

const Profile& ItemProfileRef::get() const {
  return box_ != nullptr ? box_->profile : empty_profile();
}

std::size_t ItemProfileRef::size() const {
  return box_ != nullptr ? box_->profile.size() : 0;
}

ItemProfileRef& ItemProfileRef::operator=(Profile profile) {
  release();
  if (profile.empty()) return *this;
  box_ = new Box{.refs = 1, .profile = std::move(profile)};
  box_->profile.norm();  // warm before the ref can escape across threads
  return *this;
}

Profile& ItemProfileRef::owned() {
  if (box_ == nullptr) {
    box_ = new Box{};
  } else if (ref_count() > 1) {
    // Shared with in-flight payload copies: clone, leave them untouched.
    Box* clone = new Box{.refs = 1, .profile = box_->profile};
    release();
    box_ = clone;
  }
  return box_->profile;
}

void ItemProfileRef::fold_profile(const Profile& user) {
  if (user.empty()) return;  // Profile::fold_profile would no-op too
  if (box_ != nullptr && ref_count() > 1) {
    // Shared: merge from the shared source into one fresh box instead of
    // cloning it first and then rebuilding the clone's arrays.
    Box* fresh = new Box{};
    fresh->profile.assign_folded(box_->profile, user);
    release();
    box_ = fresh;
  } else {
    owned().fold_profile(user);
  }
  box_->profile.norm();
}

void ItemProfileRef::purge_older_than(Cycle cutoff) {
  if (box_ == nullptr || !box_->profile.has_entries_older_than(cutoff)) {
    return;  // nothing to drop: keep sharing, skip the clone
  }
  Profile& p = owned();
  p.purge_older_than(cutoff);
  p.norm();
}

void ItemProfileRef::set(ItemId id, Cycle timestamp, double score) {
  Profile& p = owned();
  p.set(id, timestamp, score);
  p.norm();
}

}  // namespace whatsup
