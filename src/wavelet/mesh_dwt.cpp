#include "wavelet/mesh_dwt.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "core/kernels.hpp"

namespace wavehpc::wavelet {

namespace detail {

LevelRange level_range(const core::StripePartition& level0, std::size_t rank, int level) {
    LevelRange lr;
    lr.first = level0.first_row(rank) >> level;
    lr.count = level0.height(rank) >> level;
    return lr;
}

std::vector<std::size_t> guard_rows(const core::StripePartition& level0, std::size_t rank,
                                    int level, int taps, std::size_t level_rows,
                                    core::BoundaryMode mode) {
    const LevelRange lr = level_range(level0, rank, level);
    const std::size_t end = lr.first + lr.count;
    std::vector<std::size_t> rows;
    rows.reserve(static_cast<std::size_t>(std::max(0, taps - 2)));
    for (int j = 0; j < taps - 2; ++j) {
        const auto x = static_cast<std::ptrdiff_t>(end) + j;
        const std::size_t g = core::extend_index(x, level_rows, mode);
        rows.push_back(g < level_rows ? g : kNotARow);
    }
    return rows;
}

GuardLink plain_link(mesh::NodeCtx& ctx, int tag, std::function<int(std::size_t)> rank_of) {
    return {[&ctx, tag, rank_of](std::size_t peer, std::span<const float> floats) {
                ctx.send_span<float>(tag, rank_of(peer), floats);
                return true;
            },
            [&ctx, tag, rank_of](std::size_t peer) -> std::optional<std::vector<float>> {
                return ctx.recv_vector<float>(tag, rank_of(peer));
            }};
}

bool exchange_guard(mesh::NodeCtx& ctx, const GuardLink& link,
                    const core::StripePartition& part, std::size_t me, int level,
                    const std::function<std::vector<std::size_t>(std::size_t)>& needs,
                    std::size_t line_floats,
                    const std::function<void(std::size_t, std::vector<float>&)>& pack,
                    const std::function<void(std::size_t, std::span<const float>)>& unpack,
                    double send_cost, std::optional<double> recv_cost) {
    const LevelRange mine = level_range(part, me, level);
    const auto owned = [&mine](std::size_t g) {
        return g != kNotARow && g >= mine.first && g < mine.first + mine.count;
    };

    // Send every index the lines it needs from me. A lost peer still lets
    // the remaining sends go out before the exchange gives up.
    bool delivered = true;
    for (std::size_t j = 0; j < part.parts(); ++j) {
        if (j == me) continue;
        std::vector<float> payload;
        for (std::size_t g : needs(j)) {
            if (owned(g)) pack(g, payload);
        }
        if (payload.empty()) continue;
        ctx.compute_redundant(send_cost * static_cast<double>(payload.size()));
        delivered = link.send(j, payload) && delivered;
    }
    if (!delivered) return false;

    // Install what I need, one message per owning index.
    const auto needed = needs(me);
    std::map<std::size_t, std::vector<float>> from_owner;
    std::map<std::size_t, std::size_t> cursor;
    for (std::size_t t = 0; t < needed.size(); ++t) {
        const std::size_t g = needed[t];
        if (g == kNotARow) continue;  // ZeroPad: the caller's zeros stay
        if (owned(g)) {
            std::vector<float> local;
            pack(g, local);
            unpack(t, local);
            continue;
        }
        const std::size_t o = part.owner(g << level);
        if (from_owner.find(o) == from_owner.end()) {
            auto m = link.recv(o);
            if (!m.has_value()) return false;
            from_owner[o] = std::move(*m);
            cursor[o] = 0;
        }
        const auto& buf = from_owner.at(o);
        std::size_t& cur = cursor.at(o);
        if ((cur + 1) * line_floats > buf.size()) {
            throw std::logic_error("exchange_guard: guard underflow");
        }
        unpack(t, std::span<const float>(buf).subspan(cur * line_floats, line_floats));
        cur += 1;
        if (recv_cost.has_value()) {
            ctx.compute_redundant(*recv_cost * static_cast<double>(line_floats));
        }
    }
    return true;
}

std::optional<LevelBands> stripe_level(mesh::NodeCtx& ctx, const GuardLink& link,
                                       const core::StripePartition& part, std::size_t me,
                                       int level, const core::ImageF& stripe,
                                       const core::FilterPair& fp, core::BoundaryMode mode,
                                       const core::SequentialCostModel& model) {
    const auto taps = static_cast<std::size_t>(fp.taps());
    const std::size_t h = stripe.rows();
    const std::size_t level_cols = stripe.cols();
    const std::size_t half_c = level_cols / 2;
    const std::size_t level_rows = part.total_rows() >> level;
    const std::size_t first = level_range(part, me, level).first;

    // Row pass: fully local under striping (figure 3).
    core::ImageF low_rows(h, half_c);
    core::ImageF high_rows(h, half_c);
    core::analyze_rows_range(stripe, fp, low_rows, high_rows, mode,
                             core::DwtKernel::Convolve, 0, h);
    const std::size_t row_outputs = h * level_cols;  // both bands
    ctx.compute(model.seconds(row_outputs, row_outputs * taps));

    // South guard zone on the row-pass outputs (figure 3: wrap/reflection
    // per boundary mode), one line = an L row then its H row.
    const auto needs = [&](std::size_t j) {
        return guard_rows(part, j, level, fp.taps(), level_rows, mode);
    };
    const std::size_t guard = needs(me).size();
    core::ImageF low_ext(h + guard, half_c, 0.0F);
    core::ImageF high_ext(h + guard, half_c, 0.0F);
    low_ext.paste(low_rows, 0, 0);
    high_ext.paste(high_rows, 0, 0);
    const bool complete = exchange_guard(
        ctx, link, part, me, level, needs, 2 * half_c,
        [&](std::size_t g, std::vector<float>& out) {
            const auto l = low_rows.row(g - first);
            const auto hr = high_rows.row(g - first);
            out.insert(out.end(), l.begin(), l.end());
            out.insert(out.end(), hr.begin(), hr.end());
        },
        [&](std::size_t t, std::span<const float> line) {
            std::copy_n(line.begin(), half_c, low_ext.row(h + t).begin());
            std::copy_n(line.begin() + static_cast<std::ptrdiff_t>(half_c), half_c,
                        high_ext.row(h + t).begin());
        },
        model.per_output(), std::nullopt);
    if (!complete) return std::nullopt;
    // Unpacking mirrors packing, charged for every guard row.
    ctx.compute_redundant(model.per_output() * static_cast<double>(2 * guard * half_c));

    return col_pass(ctx, low_ext, high_ext, h / 2, fp, model);
}

LevelBands col_pass(mesh::NodeCtx& ctx, const core::ImageF& low_ext,
                    const core::ImageF& high_ext, std::size_t out_rows,
                    const core::FilterPair& fp, const core::SequentialCostModel& model) {
    // Output row k (stripe-local) reads extended rows 2k .. 2k+taps-1, all
    // inside the stripe, so the boundary mapping is the identity and the mode
    // passed is immaterial. Every output element is written.
    const std::size_t cols = low_ext.cols();
    LevelBands out{core::ImageF(out_rows, cols),
                   {core::ImageF(out_rows, cols), core::ImageF(out_rows, cols),
                    core::ImageF(out_rows, cols)}};
    const auto low = core::RingRows::whole(low_ext);
    const auto high = core::RingRows::whole(high_ext);
    for (std::size_t k = 0; k < out_rows; ++k) {
        core::analyze_cols_row(low, high, low_ext.rows(), cols, fp, core::BoundaryMode::ZeroPad,
                               k, out.ll.row(k), out.bands.lh.row(k), out.bands.hl.row(k),
                               out.bands.hh.row(k));
    }
    const std::size_t col_outputs = 4 * out_rows * cols;
    ctx.compute(model.seconds(col_outputs,
                              col_outputs * static_cast<std::size_t>(fp.taps())));
    // Fixed per-level setup (buffer and subband bookkeeping).
    ctx.compute(model.per_level());
    return out;
}

core::ImageF scatter_tiles(mesh::NodeCtx& ctx, const core::ImageF& img,
                           const TileOf& tile_of, int tag, bool scatter) {
    const auto me = static_cast<std::size_t>(ctx.rank());
    const Tile own = tile_of(me, 0);
    if (scatter && me != 0) {
        return core::ImageF(own.rows, own.cols, ctx.recv_vector<float>(tag, 0));
    }
    if (scatter) {
        for (std::size_t i = 1; i < static_cast<std::size_t>(ctx.nprocs()); ++i) {
            const Tile t = tile_of(i, 0);
            ctx.send_span<float>(tag, static_cast<int>(i),
                                 img.sub(t.row0, t.col0, t.rows, t.cols).flat());
        }
    }
    return img.sub(own.row0, own.col0, own.rows, own.cols);
}

void gather_tiles(mesh::NodeCtx& ctx, core::Pyramid& pyr, const TileOf& tile_of,
                  const std::vector<core::DetailBands>& details,
                  const core::ImageF& approx, int detail_tag, int approx_tag,
                  bool gather) {
    const auto levels = static_cast<int>(details.size());
    if (ctx.rank() != 0) {
        if (!gather) return;
        for (int level = 0; level < levels; ++level) {
            const auto& b = details[static_cast<std::size_t>(level)];
            std::vector<float> payload;
            pack_bands(payload, {&b.lh, &b.hl, &b.hh});
            ctx.send_span<float>(detail_tag + level, 0, std::span<const float>(payload));
        }
        ctx.send_span<float>(approx_tag, 0, approx.flat());
        return;
    }
    const auto paste = [&](std::size_t rank, int level, const core::DetailBands& b) {
        const Tile t = tile_of(rank, level);
        auto& dst = pyr.levels[static_cast<std::size_t>(level)];
        dst.lh.paste(b.lh, t.row0 / 2, t.col0 / 2);
        dst.hl.paste(b.hl, t.row0 / 2, t.col0 / 2);
        dst.hh.paste(b.hh, t.row0 / 2, t.col0 / 2);
    };
    for (int level = 0; level < levels; ++level) {
        paste(0, level, details[static_cast<std::size_t>(level)]);
    }
    const Tile own = tile_of(0, levels);
    pyr.approx.paste(approx, own.row0, own.col0);
    if (!gather) return;
    for (std::size_t i = 1; i < static_cast<std::size_t>(ctx.nprocs()); ++i) {
        for (int level = 0; level < levels; ++level) {
            const Tile t = tile_of(i, level);
            const auto data = ctx.recv_vector<float>(detail_tag + level, static_cast<int>(i));
            auto b = unpack_bands(data, t.rows / 2, t.cols / 2, 3);
            paste(i, level, {std::move(b[0]), std::move(b[1]), std::move(b[2])});
        }
        const Tile a = tile_of(i, levels);
        pyr.approx.paste(
            core::ImageF(a.rows, a.cols, ctx.recv_vector<float>(approx_tag, static_cast<int>(i))),
            a.row0, a.col0);
    }
}

void pack_bands(std::vector<float>& out, std::initializer_list<const core::ImageF*> bands) {
    for (const core::ImageF* band : bands) {
        out.insert(out.end(), band->flat().begin(), band->flat().end());
    }
}

std::vector<core::ImageF> unpack_bands(std::span<const float> data, std::size_t rows,
                                       std::size_t cols, std::size_t count) {
    const std::size_t n = rows * cols;
    if (data.size() != count * n) {
        throw std::logic_error("unpack_bands: payload holds " + std::to_string(data.size()) +
                               " floats, expected " + std::to_string(count * n));
    }
    std::vector<core::ImageF> out;
    out.reserve(count);
    for (std::size_t b = 0; b < count; ++b) {
        const auto band = data.subspan(b * n, n);
        out.emplace_back(rows, cols, std::vector<float>(band.begin(), band.end()));
    }
    return out;
}

core::Pyramid pyramid_shell(std::size_t rows, std::size_t cols, int levels) {
    core::Pyramid pyr;
    pyr.levels.resize(static_cast<std::size_t>(levels));
    for (int k = 0; k < levels; ++k) {
        auto& d = pyr.levels[static_cast<std::size_t>(k)];
        d.lh = core::ImageF(rows >> (k + 1), cols >> (k + 1));
        d.hl = d.lh;
        d.hh = d.lh;
    }
    pyr.approx = core::ImageF(rows >> levels, cols >> levels);
    return pyr;
}

std::vector<mesh::Coord3> placement(std::size_t nprocs, std::size_t mesh_width,
                                    core::MappingPolicy mapping) {
    std::vector<mesh::Coord3> out;
    out.reserve(nprocs);
    for (const auto c : core::make_placement(nprocs, mesh_width, mapping)) {
        out.push_back({c.x, c.y, 0});
    }
    return out;
}

}  // namespace detail

namespace {

constexpr int kTagScatter = 1;
constexpr int kTagHaloBase = 8;          // + level
constexpr int kTagGatherDetailBase = 64;  // + level
constexpr int kTagGatherApprox = 128;

}  // namespace

MeshDwtResult mesh_decompose(mesh::Machine& machine, const core::ImageF& img,
                             const core::FilterPair& fp, const MeshDwtConfig& cfg,
                             std::size_t nprocs,
                             const core::SequentialCostModel& compute_model) {
    core::validate_decomposition_request(img.rows(), img.cols(), cfg.levels);
    const core::StripePartition part0(img.rows(), nprocs, std::size_t{1} << cfg.levels);
    const detail::TileOf tile_of = [&](std::size_t rank, int level) {
        const detail::LevelRange lr = detail::level_range(part0, rank, level);
        return detail::Tile{lr.first, 0, lr.count, img.cols() >> level};
    };

    MeshDwtResult result;
    result.pyramid = detail::pyramid_shell(img.rows(), img.cols(), cfg.levels);

    const auto body = [&](mesh::NodeCtx& ctx) {
        const auto me = static_cast<std::size_t>(ctx.rank());
        core::ImageF current =
            detail::scatter_tiles(ctx, img, tile_of, kTagScatter, cfg.scatter_gather);
        std::vector<core::DetailBands> details;
        for (int level = 0; level < cfg.levels; ++level) {
            auto out = detail::stripe_level(ctx, detail::plain_link(ctx, kTagHaloBase + level),
                                            part0, me, level, current, fp, cfg.mode,
                                            compute_model);
            details.push_back(std::move(out->bands));
            current = std::move(out->ll);
        }
        detail::gather_tiles(ctx, result.pyramid, tile_of, details, current,
                             kTagGatherDetailBase, kTagGatherApprox, cfg.scatter_gather);
    };

    result.run = machine.run(
        nprocs, detail::placement(nprocs, machine.profile().topo.sx(), cfg.mapping), body);
    result.seconds = result.run.makespan;
    return result;
}

}  // namespace wavehpc::wavelet
