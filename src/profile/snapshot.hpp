// Per-agent snapshot cache for a node's outgoing self-descriptor — the
// memory half of the gossip hot path.
//
// Descriptors ship profiles as compact records behind a 4-byte
// `DescriptorRef` stamp (timestamp, snapshot) in the snapshot arena
// (profile/compact.hpp). A node ships each profile generation in every
// gossip message until its next like or dislike, so encoding a snapshot
// per message, or minting a stamp per message, would repeat the same work.
// `ProfileSnapshotCache` owns the current generation: it holds a handle on
// the record of the last `Profile::version()` it saw and re-encodes only
// when that version changes (equal versions imply equal contents, see
// profile.hpp). It keeps the last stamp too, and re-mints only that
// 16-byte record when the cycle changes. Each agent owns one and passes it
// to all of its gossip protocols, so RPS and WUP messages of the same
// cycle share one stamp; it is consulted only when a message goes out.
// A superseded generation's record frees as soon as the last descriptor
// shipping it drops.
#pragma once

#include <cstdint>

#include "common/ids.hpp"
#include "profile/compact.hpp"

namespace whatsup {

class ProfileSnapshotCache {
 public:
  // The (timestamp, snapshot) stamp record for a self-descriptor emitted
  // at `now`: one encode per profile version, one stamp record per
  // (cycle, version), shared by every gossip message that carries it.
  DescriptorRef stamp(Cycle now, const Profile& profile);

 private:
  ProfileHandle blob_;
  std::uint64_t blob_version_ = ~std::uint64_t{0};
  DescriptorRef stamp_;
  Cycle stamp_cycle_ = kNoCycle;
};

}  // namespace whatsup
