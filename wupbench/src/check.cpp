#include "check.hpp"

#include <cstdio>

namespace wupbench {

namespace {

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

std::optional<std::string> check_scores(const WorkloadSpec& spec,
                                        const whatsup::metrics::Scores& scores) {
  if (!spec.f1.contains(scores.f1)) {
    return format("f1 %.6f outside [%.3f, %.3f]", scores.f1, spec.f1.lo, spec.f1.hi);
  }
  if (!spec.recall.contains(scores.recall)) {
    return format("recall %.6f outside [%.3f, %.3f]", scores.recall, spec.recall.lo,
                  spec.recall.hi);
  }
  return std::nullopt;
}

std::optional<std::string> check_fingerprint(std::uint64_t measured,
                                             std::uint64_t reference,
                                             const std::string& reference_name) {
  if (measured == reference) return std::nullopt;
  return format("trajectory fingerprint %016llx differs from %016llx of %s",
                static_cast<unsigned long long>(measured),
                static_cast<unsigned long long>(reference), reference_name.c_str());
}

std::optional<std::string> check_overflow(std::uint64_t dropped) {
  if (dropped == 0) return std::nullopt;
  return format("%llu message(s) dropped by mailbox overflow",
                static_cast<unsigned long long>(dropped));
}

}  // namespace wupbench
