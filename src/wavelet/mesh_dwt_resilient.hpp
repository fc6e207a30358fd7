#pragma once
// Fault-tolerant variant of the striped mesh decomposition.
//
// Rank 0 keeps the running LL image between levels (the gather at each level
// boundary *is* the checkpoint), so a level is always redoable. Every level
// runs as: re-stripe the LL rows over the currently-live ranks, scatter,
// local row pass, neighbour guard-zone exchange, column pass, gather. All
// control and data frames travel over the reliable transport; peers that
// fail-stop are detected by expired crecv_timeout waits (or exhausted
// retransmissions), reported to rank 0, and the level is redone from the
// checkpoint with the dead rank's rows re-striped over the survivors.
//
// Each stripe runs the plain decomposition's level body (detail::stripe_level:
// row pass, guard exchange, column pass) over a link of reliable sends and
// timed receives, and each output row depends only on global input rows,
// never on stripe boundaries — so the assembled pyramid is bit-identical to
// the fault-free result whenever recovery succeeds.
//
// All time spent on redo attempts is charged to NodeStats::recovery_seconds
// (the perf budget's recovery category) via recovery mode.

#include <cstddef>
#include <vector>

#include "core/cost_model.hpp"
#include "core/dwt.hpp"
#include "core/stripe.hpp"
#include "mesh/machine.hpp"

namespace wavehpc::wavelet {

struct ResilientDwtConfig {
    int levels = 1;
    core::BoundaryMode mode = core::BoundaryMode::Symmetric;
    core::MappingPolicy mapping = core::MappingPolicy::Snake;
    /// Virtual seconds a rank waits on a peer before declaring it dead. A
    /// false positive (slow peer under heavy faults) costs an extra redo but
    /// never changes the coefficients.
    double detect_timeout = 5.0;
    /// Transport tuning for control/data/guard frames.
    mesh::ReliableParams reliable{};
    /// Give up (throw) after this many attempts at one level; bounded at 16.
    int max_attempts_per_level = 8;
};

struct ResilientDwtResult {
    core::Pyramid pyramid;         ///< assembled at rank 0
    double seconds = 0.0;          ///< virtual makespan
    mesh::Machine::RunResult run;  ///< per-node stats, fault counters
    std::size_t level_retries = 0; ///< redo attempts summed over all levels
    std::vector<int> failed_ranks; ///< ranks rank 0 declared dead, in order
};

/// Resiliently decompose `img` on `nprocs` ranks of `machine`. The machine's
/// fault plan may drop/corrupt messages and fail-stop any rank except 0 (the
/// checkpoint holder; a plan that kills rank 0 throws std::invalid_argument).
[[nodiscard]] ResilientDwtResult mesh_decompose_resilient(
    mesh::Machine& machine, const core::ImageF& img, const core::FilterPair& fp,
    const ResilientDwtConfig& cfg, std::size_t nprocs,
    const core::SequentialCostModel& compute_model);

}  // namespace wavehpc::wavelet
