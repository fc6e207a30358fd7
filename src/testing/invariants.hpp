#pragma once
// Invariant checkers for fuzzed simulation runs.
//
// Each checker either passes silently or produces a human-readable
// violation string; callers append the seed repro line and fail the test.
// The checkers assert the properties the rest of the repo *claims*:
// exactly-once in-order delivery per (src, dst, tag) channel over the
// reliable transport, perf-budget categories summing to elapsed time, and
// parallel DWT pyramids bit-identical to the serial reference.

#include <cstddef>
#include <string>

#include "core/dwt.hpp"
#include "mesh/machine.hpp"

namespace wavehpc::testing {

struct TrafficReport {
    mesh::Machine::RunResult run;
    std::size_t payloads = 0;   ///< application payloads exchanged
    std::string violation;      ///< empty when every invariant held
    [[nodiscard]] bool ok() const noexcept { return violation.empty(); }
};

/// Run a deterministic all-pairs traffic pattern on `machine` (which should
/// have reliable transport enabled when its fault plan drops or corrupts):
/// every ordered rank pair exchanges `rounds` stamped payloads on two tags,
/// with barriers and a global sum mixed in. Verifies that every channel
/// delivered stamps 0..rounds-1 exactly once, in order, with intact
/// contents, and that the closing collective saw every rank's contribution.
/// Transport give-ups and deadlocks are reported as violations, not thrown.
[[nodiscard]] TrafficReport run_traffic_audit(mesh::Machine& machine,
                                              std::size_t nprocs, std::size_t rounds);

/// The performance-budget identity: useful + comm + redundancy + recovery +
/// imbalance must account for the whole makespan (residual `other` ~ 0).
/// Empty string when it holds within `tol`.
[[nodiscard]] std::string check_budget(const mesh::Machine::RunResult& run,
                                       double tol = 1e-6);

/// True iff the two pyramids have identical structure and bit-identical
/// coefficients in every band (core::Image's bytewise operator==). The one
/// pyramid comparison of the tests and benches.
[[nodiscard]] bool pyramids_bit_identical(const core::Pyramid& a,
                                          const core::Pyramid& b);

}  // namespace wavehpc::testing
