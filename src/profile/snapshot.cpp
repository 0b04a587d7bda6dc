#include "profile/snapshot.hpp"

namespace whatsup {

DescriptorRef ProfileSnapshotCache::stamp(Cycle now, const Profile& profile) {
  if (stamp_.is_null() || stamp_cycle_ != now ||
      stamp_version_ != profile.version()) {
    stamp_ = DescriptorRef::make(now, ProfileHandle::snapshot(profile));
    stamp_cycle_ = now;
    stamp_version_ = profile.version();
  }
  return stamp_;
}

}  // namespace whatsup
