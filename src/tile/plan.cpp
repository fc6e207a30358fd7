#include "tile/plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/dwt.hpp"
#include "core/knobs.hpp"

namespace wavehpc::tile {

TileConfig TileConfig::from_env() {
    TileConfig cfg;
    cfg.tile_rows = core::env_unsigned("WAVEHPC_TILE_ROWS").value_or(cfg.tile_rows);
    cfg.tile_cols = core::env_unsigned("WAVEHPC_TILE_COLS").value_or(cfg.tile_cols);
    return cfg;
}

TilePlan TilePlan::build(std::size_t rows, std::size_t cols, int levels,
                         std::size_t taps, const TileConfig& cfg) {
    core::validate_decomposition_request(rows, cols, levels);
    if (taps < 2 || taps % 2 != 0) {
        throw std::invalid_argument("TilePlan: taps must be even and >= 2");
    }
    if (cfg.tile_rows == 0 || cfg.tile_cols == 0) {
        throw std::invalid_argument("TilePlan: tile dimensions must be non-zero");
    }
    TilePlan plan;
    plan.rows = rows;
    plan.cols = cols;
    plan.levels = levels;
    plan.taps = taps;
    plan.halo = taps - 1;
    plan.tile_rows = cfg.tile_rows;
    plan.tile_cols = cfg.tile_cols;
    plan.level.reserve(static_cast<std::size_t>(levels));
    for (int l = 0; l < levels; ++l) {
        LevelGeometry g;
        g.in_rows = rows >> l;
        g.in_cols = cols >> l;
        g.out_rows = g.in_rows / 2;
        g.out_cols = g.in_cols / 2;
        g.tiles_down = (g.out_rows + cfg.tile_rows - 1) / cfg.tile_rows;
        g.tiles_across = (g.out_cols + cfg.tile_cols - 1) / cfg.tile_cols;
        const std::size_t band = std::min(cfg.tile_rows, g.out_rows);
        g.ring_rows = std::min(g.in_rows, 2 * band + taps);
        g.head_rows = std::min(g.in_rows, taps - 2);
        plan.level.push_back(g);
    }
    return plan;
}

std::vector<Reservation> TilePlan::reservations() const {
    std::vector<Reservation> res;
    // Level-0 ingest staging: the driver reads the source in bands of
    // min(tile_rows, rows) full-width rows.
    res.push_back({std::min(tile_rows, rows) * cols, 1});
    for (int l = 0; l < levels; ++l) {
        const LevelGeometry& g = level[static_cast<std::size_t>(l)];
        res.push_back({g.ring_rows * g.out_cols, 2});  // lo + hi rings
        if (g.head_rows > 0) {
            res.push_back({g.head_rows * g.out_cols, 2});  // lo + hi heads
        }
        if (l + 1 < levels) {
            // LL cascade band feeding the next level's ingest.
            res.push_back({std::min(tile_rows, g.out_rows) * g.out_cols, 1});
        }
        // Tile shapes: interior plus (possibly equal) bottom/right edge
        // remainders. Only one tile's four subband buffers are ever live
        // in the driver at once, so four slabs per DISTINCT size suffice;
        // duplicates (an evenly dividing grid, or coincidentally equal
        // areas) are collapsed rather than double-provisioned.
        const std::size_t th_i = std::min(tile_rows, g.out_rows);
        const std::size_t th_e = g.out_rows - (g.tiles_down - 1) * tile_rows;
        const std::size_t tw_i = std::min(tile_cols, g.out_cols);
        const std::size_t tw_e = g.out_cols - (g.tiles_across - 1) * tile_cols;
        std::vector<std::size_t> shapes;
        for (const std::size_t th : {th_i, th_e}) {
            for (const std::size_t tw : {tw_i, tw_e}) {
                const std::size_t floats = th * tw;
                if (std::find(shapes.begin(), shapes.end(), floats) == shapes.end()) {
                    shapes.push_back(floats);
                }
            }
        }
        for (const std::size_t floats : shapes) res.push_back({floats, 4});
    }
    return res;
}

std::uint64_t TilePlan::resident_bytes_bound() const {
    std::uint64_t floats = 0;
    for (const Reservation& r : reservations()) {
        floats += static_cast<std::uint64_t>(r.floats) * r.count;
    }
    return floats * sizeof(float);
}

}  // namespace wavehpc::tile
