// Per-cycle stamp cache for a node's outgoing self-descriptor — the memory
// half of the gossip hot path.
//
// Descriptors ship profiles as interned compact records behind a 4-byte
// `DescriptorRef` stamp (timestamp, snapshot) in the snapshot arena
// (profile/compact.hpp). A node sending several gossip messages in one
// cycle would otherwise mint one stamp record per message.
// `ProfileSnapshotCache` keeps the last stamp and reuses it while both the
// cycle and `Profile::version()` are unchanged (equal versions imply equal
// contents, see profile.hpp). Each agent owns one and passes it to all of
// its gossip protocols, so RPS and WUP messages of the same cycle share
// one stamp; it is consulted only when a message goes out. On a miss it
// interns through
// `ProfileHandle::snapshot`, whose version-keyed table already shares each
// profile generation across cycles; empty profiles share one static handle.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "profile/compact.hpp"

namespace whatsup {

class ProfileSnapshotCache {
 public:
  // The (timestamp, snapshot) stamp record for a self-descriptor emitted
  // at `now`: reused while both the profile version and the cycle are
  // unchanged, so a node sending several gossip messages in one cycle
  // shares ONE arena record across all of them.
  DescriptorRef stamp(Cycle now, const Profile& profile);

 private:
  DescriptorRef stamp_;
  Cycle stamp_cycle_ = kNoCycle;
  std::uint64_t stamp_version_ = ~std::uint64_t{0};
};

}  // namespace whatsup
