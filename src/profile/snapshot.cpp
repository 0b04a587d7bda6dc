#include "profile/snapshot.hpp"

namespace whatsup {

DescriptorRef ProfileSnapshotCache::stamp(Cycle now, const Profile& profile) {
  if (blob_version_ != profile.version()) {
    blob_ = ProfileHandle::snapshot(profile);
    blob_version_ = profile.version();
    stamp_ = nullptr;
  }
  if (stamp_.is_null() || stamp_cycle_ != now) {
    stamp_ = DescriptorRef::make(now, blob_);
    stamp_cycle_ = now;
  }
  return stamp_;
}

}  // namespace whatsup
