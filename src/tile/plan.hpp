#pragma once
// Tile plan for the streaming gigapixel DWT (ISSUE 9).
//
// A W x H scene is decomposed as a grid of fixed-size tiles per level:
// output rows advance in bands of `tile_rows`, output columns split into
// `tile_cols`-wide segments. Neighbouring tiles exchange a halo of
// taps-1 input samples — vertically the driver realizes the exchange by
// retaining the last taps row-pass rows in a per-level ring buffer,
// horizontally by letting each tile's row transform read its neighbours'
// pixels from the shared full-width scanline. (Output k reads inputs 2k ..
// 2k+taps-1, so its vertical overhang past its own rows is taps-2, and
// taps-1 is the safe guard width the plan provisions.) True image edges
// are handled by the boundary mode, never by the tile seams, which is what
// keeps every interior AND edge coefficient bit-identical to the
// monolithic decompose.
//
// The plan is pure arithmetic: level geometry, ring capacities, and the
// exact buffer reservation list the streaming driver will obtain, so a
// caller can pre-provision a BufferArena (BufferArena::reserve) and then
// assert the stream ran with zero warm allocations. Every quantity is
// independent of the image HEIGHT (the ingest stages one input row at a
// time, rings are capped at taps rows, and each level holds one band of
// tiles across its width), which is the constant-memory claim
// bench_tiled_stream gates on.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wavehpc::tile {

struct TileConfig {
    std::size_t tile_rows = 128;  ///< output rows per tile band
    std::size_t tile_cols = 256;  ///< output cols per tile

    /// Defaults overridden by WAVEHPC_TILE_ROWS / WAVEHPC_TILE_COLS, each
    /// in [1, 65536] (core/knobs.hpp: unset or empty keeps the default).
    [[nodiscard]] static TileConfig from_env();
};

/// Geometry of one pyramid level in the tile grid.
struct LevelGeometry {
    std::size_t in_rows = 0;   ///< level input plane height
    std::size_t in_cols = 0;   ///< level input plane width
    std::size_t out_rows = 0;  ///< each subband = in/2
    std::size_t out_cols = 0;
    std::size_t tiles_down = 0;    ///< ceil(out_rows / tile_rows)
    std::size_t tiles_across = 0;  ///< ceil(out_cols / tile_cols)
    /// Rows of the level sweep's lo/hi ring, min(in_rows, taps), and head,
    /// min(in_rows, taps-2) (core::LevelSweep). The head is reserved in
    /// every mode; only the Periodic bottom wrap reads it.
    std::size_t ring_rows = 0;
    std::size_t head_rows = 0;
};

/// One pre-provisioning entry: `count` buffers of `floats` floats.
struct Reservation {
    std::size_t floats = 0;
    std::size_t count = 0;
};

struct TilePlan {
    std::size_t rows = 0;
    std::size_t cols = 0;
    int levels = 0;
    std::size_t taps = 0;
    std::size_t halo = 0;  ///< guard width provisioned between tiles: taps-1
    std::size_t tile_rows = 0;
    std::size_t tile_cols = 0;
    std::vector<LevelGeometry> level;  ///< one per pyramid level, finest first

    /// Build the plan. Validates like core::decompose (dims divisible by
    /// 2^levels) plus even taps >= 2; throws std::invalid_argument.
    [[nodiscard]] static TilePlan build(std::size_t rows, std::size_t cols, int levels,
                                        std::size_t taps, const TileConfig& cfg);

    /// Exactly the buffers stream_decompose obtains, as (floats, count)
    /// pairs: the level-0 ingest staging row, each level's lo/hi rings
    /// and head rows, one LL row per non-final level, and one band's tiles
    /// per level (interior and edge widths, the taller of the interior and
    /// bottom band heights per area), three buffers per tile, four at the
    /// last level where the LL tile is the output. Replaying this list
    /// through BufferArena::reserve makes the stream allocation-free.
    [[nodiscard]] std::vector<Reservation> reservations() const;

    /// Upper bound (bytes) on driver-resident buffer memory: the summed
    /// reservation list. Independent of the image height by construction.
    [[nodiscard]] std::uint64_t resident_bytes_bound() const;
};

}  // namespace wavehpc::tile
