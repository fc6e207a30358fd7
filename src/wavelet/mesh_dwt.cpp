#include "wavelet/mesh_dwt.hpp"

#include <map>

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

void row_pass(const core::ImageF& in, const core::FilterPair& fp,
              core::BoundaryMode mode, core::ImageF& low, core::ImageF& high) {
    // The simulator's coefficients are pinned to the convolve golden kernel
    // so its bit-compared artifacts stay stable regardless of the process
    // kernel selection (WAVEHPC_DWT_KERNEL).
    core::analyze_rows_range(in, fp, low, high, mode, core::DwtKernel::Convolve, 0,
                             in.rows());
}

void col_pass(const core::ImageF& low_ext, const core::ImageF& high_ext,
              const core::FilterPair& fp, core::ImageF& ll, core::DetailBands& bands) {
    // Output row k (stripe-local) reads extended rows 2k .. 2k+taps-1, all
    // inside the stripe, so the boundary mapping is the identity and the mode
    // passed is immaterial. Every output element is written, and LL fills
    // its stripe from column 0; like row_pass, the kernel is pinned to
    // convolve.
    const core::RowAccessor low = [&low_ext](std::size_t r) {
        return low_ext.row(r).data();
    };
    const core::RowAccessor high = [&high_ext](std::size_t r) {
        return high_ext.row(r).data();
    };
    core::analyze_cols_tile(low, high, low_ext.rows(), low_ext.cols(), fp, ll, bands.lh,
                            bands.hl, bands.hh, core::BoundaryMode::ZeroPad,
                            core::DwtKernel::Convolve, 0, ll.rows(), 0);
}

std::vector<float> pack_guard(const core::ImageF& low_rows, const core::ImageF& high_rows,
                              std::size_t my_first, std::span<const std::size_t> rows) {
    std::vector<float> out;
    out.reserve(rows.size() * 2 * low_rows.cols());
    for (std::size_t g : rows) {
        const std::size_t local = g - my_first;
        const auto l = low_rows.row(local);
        const auto h = high_rows.row(local);
        out.insert(out.end(), l.begin(), l.end());
        out.insert(out.end(), h.begin(), h.end());
    }
    return out;
}

}  // namespace detail

namespace {

using detail::kNotARow;
using detail::LevelRange;
using detail::pack_guard;

constexpr int kTagScatter = 1;
constexpr int kTagHaloBase = 8;          // + level
constexpr int kTagGatherDetailBase = 64;  // + level
constexpr int kTagGatherApprox = 128;

/// Owner of a level-`level` image row, via the level-0 partition (stripe
/// boundaries are divisible by 2^levels, so this is exact).
std::size_t owner_of(const core::StripePartition& level0, std::size_t level_row,
                     int level) {
    return level0.owner(level_row << level);
}

struct NodeScratch {
    core::ImageF current;                       // my stripe of the running LL
    std::vector<core::DetailBands> details;     // my stripes, finest first
};

}  // namespace

MeshDwtResult mesh_decompose(mesh::Machine& machine, const core::ImageF& img,
                             const core::FilterPair& fp, const MeshDwtConfig& cfg,
                             std::size_t nprocs,
                             const core::SequentialCostModel& compute_model) {
    core::validate_decomposition_request(img.rows(), img.cols(), cfg.levels);
    const std::size_t granularity = std::size_t{1} << cfg.levels;
    const core::StripePartition part0(img.rows(), nprocs, granularity);

    const auto placement2 =
        core::make_placement(nprocs, machine.profile().topo.sx(), cfg.mapping);
    std::vector<mesh::Coord3> placement;
    placement.reserve(nprocs);
    for (auto c : placement2) placement.push_back({c.x, c.y, 0});

    const int taps = fp.taps();
    MeshDwtResult result;
    result.pyramid.levels.resize(static_cast<std::size_t>(cfg.levels));
    for (int k = 0; k < cfg.levels; ++k) {
        const std::size_t r2 = img.rows() >> (k + 1);
        const std::size_t c2 = img.cols() >> (k + 1);
        auto& d = result.pyramid.levels[static_cast<std::size_t>(k)];
        d.lh = core::ImageF(r2, c2);
        d.hl = core::ImageF(r2, c2);
        d.hh = core::ImageF(r2, c2);
    }
    result.pyramid.approx =
        core::ImageF(img.rows() >> cfg.levels, img.cols() >> cfg.levels);

    const auto body = [&](mesh::NodeCtx& ctx) {
        const auto me = static_cast<std::size_t>(ctx.rank());
        const auto p = static_cast<std::size_t>(ctx.nprocs());
        NodeScratch ns;

        // ------------------------------------------------ stripe scatter
        const LevelRange own0 = detail::level_range(part0, me, 0);
        if (cfg.scatter_gather) {
            if (me == 0) {
                for (std::size_t i = 1; i < p; ++i) {
                    const LevelRange lr = detail::level_range(part0, i, 0);
                    const core::ImageF block = img.sub(lr.first, 0, lr.count, img.cols());
                    ctx.send_span<float>(kTagScatter, static_cast<int>(i), block.flat());
                }
                ns.current = img.sub(own0.first, 0, own0.count, img.cols());
            } else {
                auto data = ctx.recv_vector<float>(kTagScatter, 0);
                ns.current = core::ImageF(own0.count, img.cols(), std::move(data));
            }
        } else {
            ns.current = img.sub(own0.first, 0, own0.count, img.cols());
        }

        // -------------------------------------------- decomposition levels
        for (int level = 0; level < cfg.levels; ++level) {
            const std::size_t level_rows = img.rows() >> level;
            const std::size_t level_cols = img.cols() >> level;
            const LevelRange lr = detail::level_range(part0, me, level);
            const std::size_t h = lr.count;
            const std::size_t half_c = level_cols / 2;

            // Row pass: fully local under striping (figure 3).
            core::ImageF low_rows(h, half_c);
            core::ImageF high_rows(h, half_c);
            detail::row_pass(ns.current, fp, cfg.mode, low_rows, high_rows);
            const std::size_t row_outputs = h * level_cols;  // both bands
            ctx.compute(compute_model.seconds(row_outputs,
                                              row_outputs * static_cast<std::size_t>(taps)));

            // Guard-zone exchange on the row-pass outputs (figure 3: south
            // neighbour only; wrap/reflection handled per boundary mode).
            // Send whatever rows other ranks need from me ...
            for (std::size_t j = 0; j < p; ++j) {
                if (j == me) continue;
                const auto needed =
                    detail::guard_rows(part0, j, level, taps, level_rows, cfg.mode);
                std::vector<std::size_t> mine;
                for (std::size_t g : needed) {
                    if (g != kNotARow && g >= lr.first && g < lr.first + h) {
                        mine.push_back(g);
                    }
                }
                if (mine.empty()) continue;
                const auto payload = pack_guard(low_rows, high_rows, lr.first, mine);
                // Packing the guard zone is parallelization redundancy.
                ctx.compute_redundant(
                    compute_model.per_output() * static_cast<double>(payload.size()));
                ctx.send_span<float>(kTagHaloBase + level, static_cast<int>(j),
                                     std::span<const float>(payload));
            }
            // ... and collect what I need, grouped by owner.
            const auto needed =
                detail::guard_rows(part0, me, level, taps, level_rows, cfg.mode);
            std::map<std::size_t, std::vector<float>> from_owner;
            std::map<std::size_t, std::size_t> cursor;
            for (std::size_t g : needed) {
                if (g == kNotARow) continue;
                const std::size_t o = owner_of(part0, g, level);
                if (o == me) continue;
                if (from_owner.find(o) == from_owner.end()) {
                    from_owner[o] =
                        ctx.recv_vector<float>(kTagHaloBase + level, static_cast<int>(o));
                    cursor[o] = 0;
                }
            }

            // Assemble the extended (stripe + guard) band images.
            const std::size_t guard = needed.size();
            core::ImageF low_ext(h + guard, half_c, 0.0F);
            core::ImageF high_ext(h + guard, half_c, 0.0F);
            low_ext.paste(low_rows, 0, 0);
            high_ext.paste(high_rows, 0, 0);
            for (std::size_t t = 0; t < guard; ++t) {
                const std::size_t g = needed[t];
                if (g == kNotARow) continue;  // ZeroPad: stays zero
                auto ldst = low_ext.row(h + t);
                auto hdst = high_ext.row(h + t);
                if (g >= lr.first && g < lr.first + h) {
                    const auto lsrc = low_rows.row(g - lr.first);
                    const auto hsrc = high_rows.row(g - lr.first);
                    std::copy(lsrc.begin(), lsrc.end(), ldst.begin());
                    std::copy(hsrc.begin(), hsrc.end(), hdst.begin());
                } else {
                    const std::size_t o = owner_of(part0, g, level);
                    auto& buf = from_owner.at(o);
                    std::size_t& cur = cursor.at(o);
                    if ((cur + 2) * half_c > buf.size()) {
                        throw std::logic_error("mesh_decompose: guard underflow");
                    }
                    std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(cur * half_c),
                                half_c, ldst.begin());
                    std::copy_n(
                        buf.begin() + static_cast<std::ptrdiff_t>((cur + 1) * half_c),
                        half_c, hdst.begin());
                    cur += 2;
                }
            }
            // Unpacking cost mirrors the packing cost.
            ctx.compute_redundant(compute_model.per_output() *
                                  static_cast<double>(2 * guard * half_c));

            // Column pass on the extended stripes.
            const std::size_t out_h = h / 2;
            core::ImageF ll(out_h, half_c);
            core::DetailBands bands;
            bands.lh = core::ImageF(out_h, half_c);
            bands.hl = core::ImageF(out_h, half_c);
            bands.hh = core::ImageF(out_h, half_c);
            detail::col_pass(low_ext, high_ext, fp, ll, bands);
            const std::size_t col_outputs = 4 * out_h * half_c;
            ctx.compute(compute_model.seconds(
                col_outputs, col_outputs * static_cast<std::size_t>(taps)));
            // Fixed per-level setup (buffer and subband bookkeeping).
            ctx.compute(compute_model.per_level());

            ns.details.push_back(std::move(bands));
            ns.current = std::move(ll);
        }

        // --------------------------------------------------- pyramid gather
        if (!cfg.scatter_gather && me != 0) return;
        const auto paste_bands = [&](std::size_t rank, int level,
                                     const core::DetailBands& b) {
            const LevelRange lr = detail::level_range(part0, rank, level);
            auto& dst = result.pyramid.levels[static_cast<std::size_t>(level)];
            dst.lh.paste(b.lh, lr.first / 2, 0);
            dst.hl.paste(b.hl, lr.first / 2, 0);
            dst.hh.paste(b.hh, lr.first / 2, 0);
        };
        if (me == 0) {
            for (int level = 0; level < cfg.levels; ++level) {
                paste_bands(0, level, ns.details[static_cast<std::size_t>(level)]);
            }
            const LevelRange lr0 = detail::level_range(part0, 0, cfg.levels);
            result.pyramid.approx.paste(ns.current, lr0.first, 0);
            if (!cfg.scatter_gather) return;
            for (std::size_t i = 1; i < p; ++i) {
                for (int level = 0; level < cfg.levels; ++level) {
                    const LevelRange lr = detail::level_range(part0, i, level);
                    const std::size_t out_h = lr.count / 2;
                    const std::size_t half_c = (img.cols() >> level) / 2;
                    const auto data = ctx.recv_vector<float>(kTagGatherDetailBase + level,
                                                             static_cast<int>(i));
                    if (data.size() != 3 * out_h * half_c) {
                        throw std::logic_error("mesh_decompose: bad gather payload");
                    }
                    core::DetailBands b;
                    const auto slice = [&](std::size_t idx) {
                        return core::ImageF(
                            out_h, half_c,
                            std::vector<float>(
                                data.begin() +
                                    static_cast<std::ptrdiff_t>(idx * out_h * half_c),
                                data.begin() + static_cast<std::ptrdiff_t>(
                                                   (idx + 1) * out_h * half_c)));
                    };
                    b.lh = slice(0);
                    b.hl = slice(1);
                    b.hh = slice(2);
                    paste_bands(i, level, b);
                }
                const LevelRange lra = detail::level_range(part0, i, cfg.levels);
                const auto adata =
                    ctx.recv_vector<float>(kTagGatherApprox, static_cast<int>(i));
                result.pyramid.approx.paste(
                    core::ImageF(lra.count, img.cols() >> cfg.levels,
                                 std::vector<float>(adata.begin(), adata.end())),
                    lra.first, 0);
            }
        } else if (cfg.scatter_gather) {
            for (int level = 0; level < cfg.levels; ++level) {
                const auto& b = ns.details[static_cast<std::size_t>(level)];
                std::vector<float> payload;
                payload.reserve(3 * b.lh.size());
                payload.insert(payload.end(), b.lh.flat().begin(), b.lh.flat().end());
                payload.insert(payload.end(), b.hl.flat().begin(), b.hl.flat().end());
                payload.insert(payload.end(), b.hh.flat().begin(), b.hh.flat().end());
                ctx.send_span<float>(kTagGatherDetailBase + level, 0,
                                     std::span<const float>(payload));
            }
            ctx.send_span<float>(kTagGatherApprox, 0, ns.current.flat());
        }
    };

    result.run = machine.run(nprocs, placement, body);
    result.seconds = result.run.makespan;
    return result;
}

}  // namespace wavehpc::wavelet
