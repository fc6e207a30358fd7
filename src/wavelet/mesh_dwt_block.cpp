#include "wavelet/mesh_dwt_block.hpp"

#include "core/kernels.hpp"

namespace wavehpc::wavelet {

namespace {

using detail::LevelRange;

constexpr int kTagScatter = 200;
constexpr int kTagEastBase = 208;         // + level
constexpr int kTagSouthBase = 240;        // + level
constexpr int kTagGatherDetailBase = 272;  // + level
constexpr int kTagGatherApprox = 320;

}  // namespace

MeshDwtResult block_decompose(mesh::Machine& machine, const core::ImageF& img,
                              const core::FilterPair& fp, const BlockDwtConfig& cfg,
                              const core::SequentialCostModel& compute_model) {
    core::validate_decomposition_request(img.rows(), img.cols(), cfg.levels);
    const std::size_t granularity = std::size_t{1} << cfg.levels;
    const core::StripePartition part_rows(img.rows(), cfg.grid_rows, granularity);
    const core::StripePartition part_cols(img.cols(), cfg.grid_cols, granularity);
    const std::size_t nprocs = cfg.grid_rows * cfg.grid_cols;

    const auto& topo = machine.profile().topo;
    if (cfg.grid_cols > topo.sx() || cfg.grid_rows > topo.sy()) {
        throw std::invalid_argument("block_decompose: tile grid exceeds the mesh");
    }
    const detail::TileOf tile_of = [&](std::size_t rank, int level) {
        const LevelRange rr = detail::level_range(part_rows, rank / cfg.grid_cols, level);
        const LevelRange cc = detail::level_range(part_cols, rank % cfg.grid_cols, level);
        return detail::Tile{rr.first, cc.first, rr.count, cc.count};
    };

    const int taps = fp.taps();
    const double per_float = compute_model.per_output();
    MeshDwtResult result;
    result.pyramid = detail::pyramid_shell(img.rows(), img.cols(), cfg.levels);

    const auto body = [&](mesh::NodeCtx& ctx) {
        const auto me = static_cast<std::size_t>(ctx.rank());
        const std::size_t br = me / cfg.grid_cols;
        const std::size_t bc = me % cfg.grid_cols;
        const auto rank_in_row = [&](std::size_t col) {
            return static_cast<int>(br * cfg.grid_cols + col);
        };
        const auto rank_in_col = [&](std::size_t row) {
            return static_cast<int>(row * cfg.grid_cols + bc);
        };

        core::ImageF current =
            detail::scatter_tiles(ctx, img, tile_of, kTagScatter, cfg.scatter_gather);
        std::vector<core::DetailBands> details;

        for (int level = 0; level < cfg.levels; ++level) {
            const std::size_t level_rows = img.rows() >> level;
            const std::size_t level_cols = img.cols() >> level;
            const LevelRange lr = detail::level_range(part_rows, br, level);
            const LevelRange lc = detail::level_range(part_cols, bc, level);
            const std::size_t h = lr.count;
            const std::size_t w = lc.count;
            const std::size_t guard = static_cast<std::size_t>(std::max(0, taps - 2));

            // ---- east guard columns on the running LL tile --------------
            core::ImageF ext_in(h, w + guard, 0.0F);
            ext_in.paste(current, 0, 0);
            (void)detail::exchange_guard(
                ctx, detail::plain_link(ctx, kTagEastBase + level, rank_in_row), part_cols,
                bc, level,
                [&](std::size_t j) {
                    return detail::guard_rows(part_cols, j, level, taps, level_cols, cfg.mode);
                },
                h,
                [&](std::size_t g, std::vector<float>& out) {
                    for (std::size_t r = 0; r < h; ++r) {
                        out.push_back(current(r, g - lc.first));
                    }
                },
                [&](std::size_t t, std::span<const float> line) {
                    for (std::size_t r = 0; r < h; ++r) ext_in(r, w + t) = line[r];
                },
                per_float, per_float);

            // ---- row pass ------------------------------------------------
            const std::size_t half_w = w / 2;
            core::ImageF low_rows(h, half_w);
            core::ImageF high_rows(h, half_w);
            // Output column j reads extended columns 2j .. 2j+taps-1, all
            // inside the tile, so the boundary mapping is the identity.
            for (std::size_t r = 0; r < h; ++r) {
                core::analyze_1d_range(ext_in.row(r), fp, low_rows.row(r),
                                       high_rows.row(r), cfg.mode, 0, half_w);
            }
            const std::size_t row_outputs = 2 * h * half_w;
            ctx.compute(compute_model.seconds(row_outputs,
                                              row_outputs * static_cast<std::size_t>(taps)));

            // ---- south guard rows on the row-pass outputs ----------------
            core::ImageF low_ext(h + guard, half_w, 0.0F);
            core::ImageF high_ext(h + guard, half_w, 0.0F);
            low_ext.paste(low_rows, 0, 0);
            high_ext.paste(high_rows, 0, 0);
            (void)detail::exchange_guard(
                ctx, detail::plain_link(ctx, kTagSouthBase + level, rank_in_col), part_rows,
                br, level,
                [&](std::size_t j) {
                    return detail::guard_rows(part_rows, j, level, taps, level_rows, cfg.mode);
                },
                2 * half_w,
                [&](std::size_t g, std::vector<float>& out) {
                    const auto l = low_rows.row(g - lr.first);
                    const auto hrow = high_rows.row(g - lr.first);
                    out.insert(out.end(), l.begin(), l.end());
                    out.insert(out.end(), hrow.begin(), hrow.end());
                },
                [&](std::size_t t, std::span<const float> line) {
                    std::copy_n(line.begin(), half_w, low_ext.row(h + t).begin());
                    std::copy_n(line.begin() + static_cast<std::ptrdiff_t>(half_w),
                                half_w, high_ext.row(h + t).begin());
                },
                per_float, per_float);

            // ---- column pass ---------------------------------------------
            auto out = detail::col_pass(ctx, low_ext, high_ext, h / 2, fp, compute_model);
            details.push_back(std::move(out.bands));
            current = std::move(out.ll);
        }

        detail::gather_tiles(ctx, result.pyramid, tile_of, details, current,
                             kTagGatherDetailBase, kTagGatherApprox, cfg.scatter_gather);
    };

    // Rank r sits at (r % grid_cols, r / grid_cols): row-major over the grid.
    result.run = machine.run(
        nprocs, detail::placement(nprocs, cfg.grid_cols, core::MappingPolicy::Naive), body);
    result.seconds = result.run.makespan;
    return result;
}

}  // namespace wavehpc::wavelet
