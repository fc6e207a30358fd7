#pragma once
// Distributed multi-resolution reconstruction (the paper's figure 2) on the
// mesh machine: the pyramid is scattered as stripes, every stage performs
// the column synthesis after fetching a north guard zone of coefficient
// rows, the row synthesis is local, and the image is gathered at rank 0.
// Synthesis honors the boundary mode the pyramid was analyzed with
// (cfg.mode, default Periodic — the exact-reconstruction convention);
// results are bit-identical to core::reconstruct under the same mode: the
// stripes run the same kernel-layer synthesis bodies. Malformed pyramids
// are rejected by core::validate_pyramid before any rank starts.

#include "core/cost_model.hpp"
#include "core/dwt.hpp"
#include "core/stripe.hpp"
#include "mesh/machine.hpp"

namespace wavehpc::wavelet {

struct MeshIdwtConfig {
    core::MappingPolicy mapping = core::MappingPolicy::Snake;
    bool scatter_gather = true;
    /// Boundary mode the pyramid was analyzed with; synthesis folds edge
    /// taps back through the same extension.
    core::BoundaryMode mode = core::BoundaryMode::Periodic;
};

struct MeshIdwtResult {
    core::ImageF image;  ///< assembled at rank 0
    double seconds = 0.0;
    mesh::Machine::RunResult run;
};

[[nodiscard]] MeshIdwtResult mesh_reconstruct(mesh::Machine& machine,
                                              const core::Pyramid& pyramid,
                                              const core::FilterPair& fp,
                                              const MeshIdwtConfig& cfg,
                                              std::size_t nprocs,
                                              const core::SequentialCostModel& compute_model);

namespace detail {
/// Global coefficient rows (of the half-size bands, mapped through `mode` —
/// wrapped for Periodic, reflected for Symmetric, dropped for ZeroPad) that
/// the column synthesis of output rows [first, first+count) reads; sorted
/// unique.
[[nodiscard]] std::vector<std::size_t> synthesis_rows_needed(
    std::size_t first, std::size_t count, std::size_t half_rows, int taps,
    core::BoundaryMode mode = core::BoundaryMode::Periodic);
}  // namespace detail

}  // namespace wavehpc::wavelet
