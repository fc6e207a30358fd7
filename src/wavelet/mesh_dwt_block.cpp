#include "wavelet/mesh_dwt_block.hpp"

#include <functional>
#include <map>

#include "core/kernels.hpp"

namespace wavehpc::wavelet {

namespace {

using detail::kNotARow;
using detail::LevelRange;

constexpr int kTagScatter = 200;
constexpr int kTagEastBase = 208;         // + level
constexpr int kTagSouthBase = 240;        // + level
constexpr int kTagGatherDetailBase = 272;  // + level
constexpr int kTagGatherApprox = 320;

/// Fetch guard lines from their owners along one axis. `pack` extracts one
/// owned line (by global index) into a float buffer; `unpack` installs the
/// t-th guard line from a span. Symmetric code runs on every rank: sends
/// first (buffered), then receives grouped by owner.
void exchange_guard(mesh::NodeCtx& ctx, const core::StripePartition& axis_part,
                    std::size_t my_axis_index, int level, int taps,
                    std::size_t axis_extent, core::BoundaryMode mode, int tag,
                    const std::function<int(std::size_t)>& rank_of_axis,
                    std::size_t line_floats,
                    const std::function<void(std::size_t, std::vector<float>&)>& pack,
                    const std::function<void(std::size_t, std::span<const float>)>& unpack,
                    double redundancy_per_float) {
    const LevelRange mine = detail::level_range(axis_part, my_axis_index, level);
    const std::size_t parts = axis_part.parts();

    // Send every line another index needs from me.
    for (std::size_t j = 0; j < parts; ++j) {
        if (j == my_axis_index) continue;
        const auto needed =
            detail::guard_rows(axis_part, j, level, taps, axis_extent, mode);
        std::vector<float> payload;
        for (std::size_t g : needed) {
            if (g != kNotARow && g >= mine.first && g < mine.first + mine.count) {
                pack(g, payload);
            }
        }
        if (payload.empty()) continue;
        ctx.compute_redundant(redundancy_per_float *
                              static_cast<double>(payload.size()));
        ctx.csend(tag, rank_of_axis(j), std::as_bytes(std::span<const float>(payload)));
    }

    // Collect what I need, grouped by owning index.
    const auto needed =
        detail::guard_rows(axis_part, my_axis_index, level, taps, axis_extent, mode);
    std::map<std::size_t, std::vector<float>> from_owner;
    std::map<std::size_t, std::size_t> cursor;
    for (std::size_t t = 0; t < needed.size(); ++t) {
        const std::size_t g = needed[t];
        if (g == kNotARow) continue;  // ZeroPad: leave zeros
        if (g >= mine.first && g < mine.first + mine.count) {
            std::vector<float> local;
            pack(g, local);
            unpack(t, local);
            continue;
        }
        const std::size_t o = axis_part.owner(g << level);
        if (from_owner.find(o) == from_owner.end()) {
            from_owner[o] = ctx.recv_vector<float>(tag, rank_of_axis(o));
            cursor[o] = 0;
        }
        auto& buf = from_owner.at(o);
        std::size_t& cur = cursor.at(o);
        if ((cur + 1) * line_floats > buf.size()) {
            throw std::logic_error("block_decompose: guard underflow");
        }
        unpack(t, std::span<const float>(buf).subspan(cur * line_floats, line_floats));
        cur += 1;
        ctx.compute_redundant(redundancy_per_float * static_cast<double>(line_floats));
    }
}

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
    std::vector<mesh::Coord3> placement;
    placement.reserve(nprocs);
    for (std::size_t br = 0; br < cfg.grid_rows; ++br) {
        for (std::size_t bc = 0; bc < cfg.grid_cols; ++bc) {
            placement.push_back({bc, br, 0});
        }
    }

    const int taps = fp.taps();
    MeshDwtResult result;
    result.pyramid.levels.resize(static_cast<std::size_t>(cfg.levels));
    for (int k = 0; k < cfg.levels; ++k) {
        auto& d = result.pyramid.levels[static_cast<std::size_t>(k)];
        d.lh = core::ImageF(img.rows() >> (k + 1), img.cols() >> (k + 1));
        d.hl = d.lh;
        d.hh = d.lh;
    }
    result.pyramid.approx =
        core::ImageF(img.rows() >> cfg.levels, img.cols() >> cfg.levels);

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

        // ---------------------------------------------------- tile scatter
        const LevelRange r0 = detail::level_range(part_rows, br, 0);
        const LevelRange c0 = detail::level_range(part_cols, bc, 0);
        core::ImageF current;
        if (cfg.scatter_gather) {
            if (me == 0) {
                for (std::size_t i = 1; i < nprocs; ++i) {
                    const std::size_t ibr = i / cfg.grid_cols;
                    const std::size_t ibc = i % cfg.grid_cols;
                    const LevelRange rr = detail::level_range(part_rows, ibr, 0);
                    const LevelRange cc = detail::level_range(part_cols, ibc, 0);
                    const core::ImageF tile = img.sub(rr.first, cc.first, rr.count, cc.count);
                    ctx.send_span<float>(kTagScatter, static_cast<int>(i), tile.flat());
                }
                current = img.sub(r0.first, c0.first, r0.count, c0.count);
            } else {
                auto data = ctx.recv_vector<float>(kTagScatter, 0);
                current = core::ImageF(r0.count, c0.count, std::move(data));
            }
        } else {
            current = img.sub(r0.first, c0.first, r0.count, c0.count);
        }

        std::vector<core::DetailBands> details;

        for (int level = 0; level < cfg.levels; ++level) {
            const std::size_t level_rows = img.rows() >> level;
            const std::size_t level_cols = img.cols() >> level;
            const LevelRange lr = detail::level_range(part_rows, br, level);
            const LevelRange lc = detail::level_range(part_cols, bc, level);
            const std::size_t h = lr.count;
            const std::size_t w = lc.count;
            const std::size_t east_guard = static_cast<std::size_t>(std::max(0, taps - 2));

            // ---- east guard columns on the running LL tile --------------
            core::ImageF ext_in(h, w + east_guard, 0.0F);
            ext_in.paste(current, 0, 0);
            exchange_guard(
                ctx, part_cols, bc, level, taps, level_cols, cfg.mode,
                kTagEastBase + level, rank_in_row, h,
                [&](std::size_t g, std::vector<float>& out) {
                    for (std::size_t r = 0; r < h; ++r) {
                        out.push_back(current(r, g - lc.first));
                    }
                },
                [&](std::size_t t, std::span<const float> line) {
                    for (std::size_t r = 0; r < h; ++r) ext_in(r, w + t) = line[r];
                },
                compute_model.per_output());

            // ---- row pass ------------------------------------------------
            const std::size_t half_w = w / 2;
            core::ImageF low_rows(h, half_w);
            core::ImageF high_rows(h, half_w);
            // Output column j reads extended columns 2j .. 2j+taps-1, all
            // inside the tile, so the boundary mapping is the identity.
            for (std::size_t r = 0; r < h; ++r) {
                core::analyze_1d_range(ext_in.row(r), fp, low_rows.row(r),
                                       high_rows.row(r), cfg.mode,
                                       core::DwtKernel::Convolve, 0, half_w);
            }
            const std::size_t row_outputs = 2 * h * half_w;
            ctx.compute(compute_model.seconds(row_outputs,
                                              row_outputs * static_cast<std::size_t>(taps)));

            // ---- south guard rows on the row-pass outputs ----------------
            const std::size_t south_guard = east_guard;
            core::ImageF low_ext(h + south_guard, half_w, 0.0F);
            core::ImageF high_ext(h + south_guard, half_w, 0.0F);
            low_ext.paste(low_rows, 0, 0);
            high_ext.paste(high_rows, 0, 0);
            exchange_guard(
                ctx, part_rows, br, level, taps, level_rows, cfg.mode,
                kTagSouthBase + level, rank_in_col, 2 * half_w,
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
                compute_model.per_output());

            // ---- column pass ---------------------------------------------
            const std::size_t out_h = h / 2;
            core::ImageF ll(out_h, half_w);
            core::DetailBands bands;
            bands.lh = core::ImageF(out_h, half_w);
            bands.hl = core::ImageF(out_h, half_w);
            bands.hh = core::ImageF(out_h, half_w);
            detail::col_pass(low_ext, high_ext, fp, ll, bands);
            const std::size_t col_outputs = 4 * out_h * half_w;
            ctx.compute(compute_model.seconds(
                col_outputs, col_outputs * static_cast<std::size_t>(taps)));
            ctx.compute(compute_model.per_level());

            details.push_back(std::move(bands));
            current = std::move(ll);
        }

        // ------------------------------------------------- pyramid gather
        const auto paste_tile = [&](std::size_t rank, int level,
                                    const core::DetailBands& b) {
            const std::size_t ibr = rank / cfg.grid_cols;
            const std::size_t ibc = rank % cfg.grid_cols;
            const LevelRange rr = detail::level_range(part_rows, ibr, level);
            const LevelRange cc = detail::level_range(part_cols, ibc, level);
            auto& dst = result.pyramid.levels[static_cast<std::size_t>(level)];
            dst.lh.paste(b.lh, rr.first / 2, cc.first / 2);
            dst.hl.paste(b.hl, rr.first / 2, cc.first / 2);
            dst.hh.paste(b.hh, rr.first / 2, cc.first / 2);
        };
        if (!cfg.scatter_gather && me != 0) return;
        if (me == 0) {
            for (int level = 0; level < cfg.levels; ++level) {
                paste_tile(0, level, details[static_cast<std::size_t>(level)]);
            }
            const LevelRange rra = detail::level_range(part_rows, 0, cfg.levels);
            const LevelRange cca = detail::level_range(part_cols, 0, cfg.levels);
            result.pyramid.approx.paste(current, rra.first, cca.first);
            if (!cfg.scatter_gather) return;
            for (std::size_t i = 1; i < nprocs; ++i) {
                for (int level = 0; level < cfg.levels; ++level) {
                    const std::size_t ibr = i / cfg.grid_cols;
                    const std::size_t ibc = i % cfg.grid_cols;
                    const LevelRange rr = detail::level_range(part_rows, ibr, level);
                    const LevelRange cc = detail::level_range(part_cols, ibc, level);
                    const std::size_t oh = rr.count / 2;
                    const std::size_t ow = cc.count / 2;
                    const auto data = ctx.recv_vector<float>(kTagGatherDetailBase + level,
                                                             static_cast<int>(i));
                    if (data.size() != 3 * oh * ow) {
                        throw std::logic_error("block_decompose: bad gather payload");
                    }
                    core::DetailBands b;
                    const auto slice = [&](std::size_t idx) {
                        return core::ImageF(
                            oh, ow,
                            std::vector<float>(
                                data.begin() + static_cast<std::ptrdiff_t>(idx * oh * ow),
                                data.begin() +
                                    static_cast<std::ptrdiff_t>((idx + 1) * oh * ow)));
                    };
                    b.lh = slice(0);
                    b.hl = slice(1);
                    b.hh = slice(2);
                    paste_tile(i, level, b);
                }
                const std::size_t ibr = i / cfg.grid_cols;
                const std::size_t ibc = i % cfg.grid_cols;
                const LevelRange rr = detail::level_range(part_rows, ibr, cfg.levels);
                const LevelRange cc = detail::level_range(part_cols, ibc, cfg.levels);
                auto adata = ctx.recv_vector<float>(kTagGatherApprox, static_cast<int>(i));
                result.pyramid.approx.paste(
                    core::ImageF(rr.count, cc.count, std::move(adata)), rr.first,
                    cc.first);
            }
        } else {
            for (int level = 0; level < cfg.levels; ++level) {
                const auto& b = details[static_cast<std::size_t>(level)];
                std::vector<float> payload;
                payload.reserve(3 * b.lh.size());
                payload.insert(payload.end(), b.lh.flat().begin(), b.lh.flat().end());
                payload.insert(payload.end(), b.hl.flat().begin(), b.hl.flat().end());
                payload.insert(payload.end(), b.hh.flat().begin(), b.hh.flat().end());
                ctx.send_span<float>(kTagGatherDetailBase + level, 0,
                                     std::span<const float>(payload));
            }
            ctx.send_span<float>(kTagGatherApprox, 0, current.flat());
        }
    };

    result.run = machine.run(nprocs, placement, body);
    result.seconds = result.run.makespan;
    return result;
}

}  // namespace wavehpc::wavelet
