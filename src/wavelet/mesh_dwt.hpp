#pragma once
// The paper's coarse-grain MIMD wavelet decomposition (section 4.2):
// striped domain decomposition, snake (or naive) placement on the mesh,
// per-level south guard-zone exchange, SPMD over the simulated machine.
//
// The node program does the real filtering arithmetic on real pixel data —
// the assembled pyramid is bit-compared against the sequential reference in
// tests — while virtual time is charged through the calibrated sequential
// cost model plus the machine's communication model.

#include <cstddef>
#include <span>
#include <vector>

#include "core/cost_model.hpp"
#include "core/dwt.hpp"
#include "core/stripe.hpp"
#include "mesh/machine.hpp"

namespace wavehpc::wavelet {

struct MeshDwtConfig {
    int levels = 1;
    core::BoundaryMode mode = core::BoundaryMode::Symmetric;
    core::MappingPolicy mapping = core::MappingPolicy::Snake;
    /// Include the initial stripe scatter from rank 0 and the final pyramid
    /// gather to rank 0 in the timed region (the paper times end-to-end
    /// decomposition of an image resident on one node).
    bool scatter_gather = true;
};

struct MeshDwtResult {
    core::Pyramid pyramid;          ///< assembled at rank 0
    double seconds = 0.0;           ///< virtual makespan
    mesh::Machine::RunResult run;   ///< per-node stats, contention, messages
};

/// Decompose `img` on `nprocs` ranks of `machine`, charging computation via
/// `compute_model`. Throws std::invalid_argument for malformed requests
/// (dimensions not divisible by 2^levels, too many ranks for the stripe
/// height, placement exceeding the mesh).
[[nodiscard]] MeshDwtResult mesh_decompose(mesh::Machine& machine, const core::ImageF& img,
                                           const core::FilterPair& fp,
                                           const MeshDwtConfig& cfg, std::size_t nprocs,
                                           const core::SequentialCostModel& compute_model);

namespace detail {

/// Rows of the level-`level` image that rank `rank` owns, derived by exact
/// halving from the level-0 partition (granularity 2^levels keeps every
/// level's stripe height even).
struct LevelRange {
    std::size_t first = 0;
    std::size_t count = 0;
};

[[nodiscard]] LevelRange level_range(const core::StripePartition& level0,
                                     std::size_t rank, int level);

/// The guard-zone rows rank `rank` must read at `level`: window row indices
/// end .. end+taps-3 resolved through the boundary mode. Entries are global
/// row indices of the level image; kNotARow marks ZeroPad samples outside.
inline constexpr std::size_t kNotARow = static_cast<std::size_t>(-1);
[[nodiscard]] std::vector<std::size_t> guard_rows(const core::StripePartition& level0,
                                                  std::size_t rank, int level, int taps,
                                                  std::size_t level_rows,
                                                  core::BoundaryMode mode);

/// Row-pass filter every row of `in` into the pre-sized half-width band
/// images `low` and `high` (both in.rows() x in.cols()/2).
void row_pass(const core::ImageF& in, const core::FilterPair& fp,
              core::BoundaryMode mode, core::ImageF& low, core::ImageF& high);

/// Column-pass the extended (stripe + guard rows) band images into the four
/// pre-sized subband stripes; output extents are taken from `ll`. Shared by
/// the plain, resilient and block decompositions so their arithmetic — and
/// thus their coefficients — are identical bit for bit.
void col_pass(const core::ImageF& low_ext, const core::ImageF& high_ext,
              const core::FilterPair& fp, core::ImageF& ll,
              core::DetailBands& bands);

/// Pack guard rows (global level-row indices, all owned by the caller whose
/// stripe starts at `my_first`) of the two row-pass band images into one
/// flat payload: for each row, the L row then the H row.
[[nodiscard]] std::vector<float> pack_guard(const core::ImageF& low_rows,
                                            const core::ImageF& high_rows,
                                            std::size_t my_first,
                                            std::span<const std::size_t> rows);

}  // namespace detail

}  // namespace wavehpc::wavelet
