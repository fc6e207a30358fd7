#pragma once
// Constant-memory streaming tile DWT driver (ISSUE 9).
//
// stream_decompose ingests a scene row-band by row-band from a TileSource
// and pushes it through a cascade of per-level states. Each level keeps:
//
//   * a full-width RING of row-pass output rows (lo and hi), capacity
//     min(in_rows, 2*tile_rows + taps) — enough that when the emission
//     gate for output band [k0, k1) opens (input row 2*k1+taps-3
//     ingested), rows 2*k0 .. 2*k1+taps-3 are all still resident;
//   * the first taps-2 row-pass rows (HEAD), which the Periodic bottom
//     edge wraps back onto (Symmetric reflects into recent ring rows and
//     ZeroPad reads nothing, so the head is only read by Periodic);
//   * an LL cascade band that forwards finished approximation rows to the
//     next level's ingest (absent at the last level, whose LL tiles ARE
//     the approximation output). Each tile's column pass writes its LL
//     straight into this band, at the tile's column offset.
//
// The row transform runs once per ingested row over the full width through
// core::analyze_1d_range (the horizontal halo is the shared scanline
// itself); column transforms run per tile through core::analyze_cols_tile
// with a RowAccessor that resolves global row indices against ring/head
// storage (the vertical halo). Both entry points run the kernel layer's one
// row and one column body — the code core::decompose runs over whole
// planes — so the whole pyramid, interior AND edges, is bit-identical to
// core::decompose for every boundary mode.
//
// Resident memory is the TilePlan reservation set: independent of the
// image height, which is what makes images >> RAM streamable.

#include <cstddef>
#include <cstdint>

#include "core/buffers.hpp"
#include "core/dwt.hpp"
#include "core/filters.hpp"
#include "core/kernels.hpp"
#include "tile/plan.hpp"
#include "tile/source.hpp"

namespace wavehpc::tile {

/// Position of one delivered tile. `level` is the 0-based pyramid index
/// (core::Pyramid::levels[level], finest first) for detail tiles, and the
/// pyramid depth for approximation tiles. row0/col0 locate the tile's
/// top-left corner in its SUBBAND plane.
struct TileCoord {
    int level = 0;
    std::size_t row0 = 0;
    std::size_t col0 = 0;
};

/// Consumer of the progressive tile stream. Tiles arrive coarse-to-fine
/// in scan order within a level; ownership of the band buffers transfers
/// with the call (recycle them into your buffer source when done).
class TileSink {
public:
    virtual ~TileSink() = default;

    virtual void on_detail(const TileCoord& coord, core::DetailBands&& bands) = 0;
    virtual void on_approx(const TileCoord& coord, core::ImageF&& ll) = 0;

    /// All detail tiles of pyramid level `level` have been delivered.
    virtual void on_level_complete(int level) { (void)level; }
    /// All approximation tiles have been delivered (the stream's
    /// "first-band sealed" moment for progressive preview clients).
    virtual void on_approx_complete() {}
};

struct TileStreamStats {
    std::size_t rows = 0;
    std::size_t cols = 0;
    int levels = 0;
    std::uint64_t bytes_in = 0;  ///< source bytes ingested (rows*cols*4)
    double seconds = 0.0;        ///< wall time of the whole stream
    /// Wall time at which the last approximation tile left the driver.
    double approx_seal_seconds = 0.0;
    /// High-water mark of driver-held buffer bytes (rings, heads, staging,
    /// cascade bands, tiles until handed to the sink). Bounded by
    /// TilePlan::resident_bytes_bound() and independent of image height.
    std::uint64_t peak_resident_bytes = 0;
};

/// Stream-decompose `src` into `sink`. `buffers` supplies every driver
/// buffer (nullptr: a private heap source); pre-provision it from
/// TilePlan::reservations() for an allocation-free run. Dimensions must
/// satisfy core::validate_decomposition_request. `kernel` is unused
/// (Convolve is the one kernel); it stays because the benchmark package
/// passes it.
TileStreamStats stream_decompose(TileSource& src, const core::FilterPair& fp,
                                 int levels, core::BoundaryMode mode,
                                 core::DwtKernel kernel, const TileConfig& cfg,
                                 TileSink& sink,
                                 core::FloatBufferSource* buffers = nullptr);

}  // namespace wavehpc::tile
