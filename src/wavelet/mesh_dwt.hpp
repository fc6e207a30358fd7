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
#include <functional>
#include <initializer_list>
#include <optional>
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

// The pieces every mesh wavelet backend (striped, block, resilient and the
// reconstruction) is built from, so their messages, charges and
// coefficients agree by construction.
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

/// The transport a guard exchange runs over, addressed by partition index.
/// `send` returns false and `recv` nullopt when the peer is lost; the
/// plain link never loses one.
struct GuardLink {
    std::function<bool(std::size_t peer, std::span<const float> floats)> send;
    std::function<std::optional<std::vector<float>>(std::size_t peer)> recv;
};

/// csend/crecv on `tag`; `rank_of` maps a partition index to its rank.
[[nodiscard]] GuardLink plain_link(
    mesh::NodeCtx& ctx, int tag,
    std::function<int(std::size_t)> rank_of = [](std::size_t j) {
        return static_cast<int>(j);
    });

/// The one guard-zone exchange. `part` partitions the exchanged axis at
/// level 0 and `me` is the caller's index in it; `needs(j)` lists the global
/// level-`level` lines index j reads (kNotARow entries are skipped). Every
/// index first sends each other index the lines it owns of that index's
/// list — packed by `pack(line, out)`, charged `send_cost` per float as
/// redundancy — then installs its own list in order: `unpack(t, line)`
/// takes the t-th entry, local lines straight from `pack`, remote ones from
/// one message per owner. A received line is charged `recv_cost` per float
/// when given; without it the caller charges the unpacking. Returns false
/// when the link lost a peer: after the sends, or at the first failed
/// receive.
[[nodiscard]] bool exchange_guard(
    mesh::NodeCtx& ctx, const GuardLink& link, const core::StripePartition& part,
    std::size_t me, int level,
    const std::function<std::vector<std::size_t>(std::size_t)>& needs,
    std::size_t line_floats,
    const std::function<void(std::size_t, std::vector<float>&)>& pack,
    const std::function<void(std::size_t, std::span<const float>)>& unpack,
    double send_cost, std::optional<double> recv_cost);

/// One level's coefficients of one stripe or tile.
struct LevelBands {
    core::ImageF ll;
    core::DetailBands bands;
};

/// Column-pass the extended (stripe + guard rows) band images into
/// `out_rows` rows of the four subbands, then charge the column outputs and
/// the fixed per-level setup through `model`. Shared by the striped,
/// resilient and block decompositions so their arithmetic — and thus their
/// coefficients — are identical bit for bit.
[[nodiscard]] LevelBands col_pass(mesh::NodeCtx& ctx, const core::ImageF& low_ext,
                                  const core::ImageF& high_ext, std::size_t out_rows,
                                  const core::FilterPair& fp,
                                  const core::SequentialCostModel& model);

/// One decomposition level of rank `me`'s stripe of the level image
/// (figure 3): the local row pass, the south guard exchange over `link`,
/// the unpacking charge for every guard row and the column pass, each
/// charged through `model`. Returns nullopt when the link lost a peer.
[[nodiscard]] std::optional<LevelBands> stripe_level(
    mesh::NodeCtx& ctx, const GuardLink& link, const core::StripePartition& part,
    std::size_t me, int level, const core::ImageF& stripe, const core::FilterPair& fp,
    core::BoundaryMode mode, const core::SequentialCostModel& model);

/// The rectangle of the level-`level` image a rank owns.
struct Tile {
    std::size_t row0 = 0;
    std::size_t col0 = 0;
    std::size_t rows = 0;
    std::size_t cols = 0;
};
using TileOf = std::function<Tile(std::size_t rank, int level)>;

/// Each rank's level-0 tile of `img`: rank 0 sends every other rank its
/// tile on `tag` when `scatter` is set, otherwise every rank cuts its own.
[[nodiscard]] core::ImageF scatter_tiles(mesh::NodeCtx& ctx, const core::ImageF& img,
                                         const TileOf& tile_of, int tag, bool scatter);

/// Assemble `pyr` at rank 0 from every rank's detail tiles (one message per
/// level on `detail_tag + level`) and final approximation tile (on
/// `approx_tag`). Without `gather` rank 0 pastes only its own tiles.
void gather_tiles(mesh::NodeCtx& ctx, core::Pyramid& pyr, const TileOf& tile_of,
                  const std::vector<core::DetailBands>& details,
                  const core::ImageF& approx, int detail_tag, int approx_tag,
                  bool gather);

/// Append the bands, in order, to `out`.
void pack_bands(std::vector<float>& out, std::initializer_list<const core::ImageF*> bands);

/// Split `data` into `count` rows x cols bands; throws std::logic_error
/// unless it holds exactly that many floats.
[[nodiscard]] std::vector<core::ImageF> unpack_bands(std::span<const float> data,
                                                     std::size_t rows, std::size_t cols,
                                                     std::size_t count);

/// A zeroed `levels`-deep pyramid of a rows x cols image.
[[nodiscard]] core::Pyramid pyramid_shell(std::size_t rows, std::size_t cols, int levels);

/// Mesh coordinates of `nprocs` ranks laid `mesh_width` wide by `mapping`.
[[nodiscard]] std::vector<mesh::Coord3> placement(std::size_t nprocs,
                                                  std::size_t mesh_width,
                                                  core::MappingPolicy mapping);

}  // namespace detail

}  // namespace wavehpc::wavelet
