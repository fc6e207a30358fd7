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
        g.ring_rows = core::LevelSweep::ring_rows(g.in_rows, taps);
        g.head_rows = core::LevelSweep::head_rows(g.in_rows, taps);
        plan.level.push_back(g);
    }
    return plan;
}

std::vector<Reservation> TilePlan::reservations() const {
    std::vector<Reservation> res;
    // Level-0 ingest staging: the driver reads the source one full-width
    // row at a time.
    res.push_back({cols, 1});
    for (int l = 0; l < levels; ++l) {
        const LevelGeometry& g = level[static_cast<std::size_t>(l)];
        res.push_back({g.ring_rows * g.out_cols, 2});  // lo + hi rings
        if (g.head_rows > 0) {
            res.push_back({g.head_rows * g.out_cols, 2});  // lo + hi heads
        }
        const bool last = l + 1 == levels;
        if (!last) res.push_back({g.out_cols, 1});  // LL row into the next level
        // One band's tiles per level are live at once, from the band's first
        // output row until the sink takes them after its last. A band holds
        // tiles_across - 1 tiles of the interior width and one of the edge
        // width (the same width when the grid divides evenly), and only the
        // bottom band may be shorter. Each tile takes three slabs (LH, HL,
        // HH), four at the last level, whose LL tiles are the approximation
        // output. Per area, reserve the most slabs either band height needs.
        const std::size_t per_tile = last ? 4 : 3;
        const std::size_t tw_i = std::min(tile_cols, g.out_cols);
        const std::size_t tw_e = g.out_cols - (g.tiles_across - 1) * tile_cols;
        std::vector<Reservation> tiles;
        for (const std::size_t th : {std::min(tile_rows, g.out_rows),
                                     g.out_rows - (g.tiles_down - 1) * tile_rows}) {
            std::vector<Reservation> band{{th * tw_e, per_tile}};
            if (tw_i == tw_e) {
                band[0].count *= g.tiles_across;
            } else {
                band.push_back({th * tw_i, (g.tiles_across - 1) * per_tile});
            }
            for (const Reservation& r : band) {
                const auto same =
                    std::find_if(tiles.begin(), tiles.end(),
                                 [&](const Reservation& t) { return t.floats == r.floats; });
                if (same == tiles.end()) {
                    tiles.push_back(r);
                } else {
                    same->count = std::max(same->count, r.count);
                }
            }
        }
        res.insert(res.end(), tiles.begin(), tiles.end());
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
