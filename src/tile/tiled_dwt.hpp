#pragma once
// Constant-memory streaming tile DWT driver (ISSUE 9).
//
// stream_decompose reads a scene from a TileSource one full-width row per
// call and pushes each row, while it is still in cache, through a cascade
// of per-level states in one loop. Each level keeps:
//
//   * a full-width RING of row-pass output rows (lo and hi), capacity
//     min(in_rows, taps): output row k reads row-pass rows 2k .. 2k+taps-1,
//     so the moment row 2k+taps-1 (or the plane's last row) lands, every
//     row output k needs is still resident, and the driver computes it;
//   * the first taps-2 row-pass rows (HEAD), which the Periodic bottom
//     edge wraps back onto (Symmetric reflects only into the last taps
//     rows and ZeroPad reads nothing past the edge, so only Periodic reads
//     the head);
//   * the current band's tiles across the full width: each output row k
//     lands in row k-k0 of every tile of its band, and the band goes to
//     the sink after its last row;
//   * one LL row toward the next level (absent at the last level, whose
//     LL tiles ARE the approximation output): each tile's column pass
//     writes its segment, and the finished row is the next level's input
//     row, pushed into its row pass at once.
//
// The row transform runs once per ingested row over the full width through
// core::analyze_1d_range (the horizontal halo is the shared scanline
// itself); the column transform runs per output row and tile through
// core::analyze_cols_row, reading the ring and head through a RingRows
// store (the vertical halo). Both run the kernel layer's one row and one
// column body, the code core::decompose runs over whole planes, so the
// whole pyramid, interior AND edges, is bit-identical to core::decompose
// for every boundary mode.
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

/// Consumer of the tile stream. Tiles arrive in scan order within a level,
/// with levels interleaved as rows cascade: a band of level l leaves as
/// soon as its last output row is computed, so the finest level's first
/// band leaves first and the approximation's last band leaves last.
/// Ownership of the band buffers transfers with the call (recycle them
/// into your buffer source when done).
class TileSink {
public:
    virtual ~TileSink() = default;

    virtual void on_detail(const TileCoord& coord, core::DetailBands&& bands) = 0;
    virtual void on_approx(const TileCoord& coord, core::ImageF&& ll) = 0;
};

struct TileStreamStats {
    std::size_t rows = 0;
    std::size_t cols = 0;
    int levels = 0;
    std::uint64_t bytes_in = 0;  ///< source bytes ingested (rows*cols*4)
    double seconds = 0.0;        ///< wall time of the whole stream
    /// Wall time at which the last approximation tile left the driver.
    double approx_seal_seconds = 0.0;
    /// High-water mark of driver-held buffer bytes (staging row, rings, heads,
    /// LL rows, each level's current band of tiles until handed to the
    /// sink). Bounded by TilePlan::resident_bytes_bound() and independent
    /// of image height.
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
