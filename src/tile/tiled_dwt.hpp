#pragma once
// Constant-memory streaming tile DWT driver (ISSUE 9).
//
// stream_decompose reads a scene from a TileSource one full-width row per
// call and pushes each row, while it is still in cache, into a cascade of
// per-level sweeps in one loop: each level runs one whole-plane stripe of
// the kernel layer's level sweep (core::LevelSweep), whose ring holds
// min(in_rows, taps) row-pass rows and whose head the first taps-2. When
// an output row is due, the driver computes it across the full width, one
// segment per tile of the current band (the vertical halo is the ring, the
// horizontal one the shared scanline), and, at a non-final level, into one
// LL row that is pushed into the next level's sweep at once. A band's tiles
// go to the sink after its last row; the last level's LL tiles are the
// approximation output. The sweep runs the kernel layer's one row and one
// column body, as core::decompose does, so the whole pyramid, interior AND
// edges, is bit-identical to core::decompose for every boundary mode.
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
