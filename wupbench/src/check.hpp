// Output checks of the benchmark. A run counts as failed when any check
// returns a reason.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "metrics/scores.hpp"
#include "workloads.hpp"

namespace wupbench {

// f1 and recall must lie in the workload's bands.
std::optional<std::string> check_scores(const WorkloadSpec& spec,
                                        const whatsup::metrics::Scores& scores);

// A run's trajectory fingerprint must equal a reference run's on the same
// inputs: at another thread count (the scheduler's determinism contract),
// with telemetry on, or on a repeat. `reference_name` names the reference
// in the failure reason.
std::optional<std::string> check_fingerprint(std::uint64_t measured,
                                             std::uint64_t reference,
                                             const std::string& reference_name);

// No message may be dropped by mailbox-ring overflow
// (engine.deliver.overflow_dropped, read in the traced run).
std::optional<std::string> check_overflow(std::uint64_t dropped);

}  // namespace wupbench
