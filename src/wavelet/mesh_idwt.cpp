#include "wavelet/mesh_idwt.hpp"

#include <algorithm>
#include <set>

#include "core/kernels.hpp"
#include "wavelet/mesh_dwt.hpp"

namespace wavehpc::wavelet {

namespace detail {

std::vector<std::size_t> synthesis_rows_needed(std::size_t first, std::size_t count,
                                               std::size_t half_rows, int taps,
                                               core::BoundaryMode mode) {
    std::set<std::size_t> rows;
    for (std::size_t m = first; m < first + count; ++m) {
        core::for_each_synthesis_tap(m, half_rows, static_cast<std::size_t>(taps), mode,
                                     [&](std::size_t k, std::size_t) { rows.insert(k); });
    }
    return {rows.begin(), rows.end()};
}

}  // namespace detail

namespace {

using detail::LevelRange;

constexpr int kTagScatterApprox = 400;
constexpr int kTagScatterDetail = 401;  // + level
constexpr int kTagGuardBase = 440;      // + stage
constexpr int kTagGatherImage = 480;

}  // namespace

MeshIdwtResult mesh_reconstruct(mesh::Machine& machine, const core::Pyramid& pyramid,
                                const core::FilterPair& fp, const MeshIdwtConfig& cfg,
                                std::size_t nprocs,
                                const core::SequentialCostModel& compute_model) {
    core::validate_pyramid(pyramid);
    const auto levels = static_cast<int>(pyramid.depth());
    const std::size_t rows = pyramid.approx.rows() << levels;
    const std::size_t cols = pyramid.approx.cols() << levels;
    const core::StripePartition part0(rows, nprocs, std::size_t{1} << levels);

    const int taps = fp.taps();
    MeshIdwtResult result;
    result.image = core::ImageF(rows, cols);

    const auto body = [&](mesh::NodeCtx& ctx) {
        const auto me = static_cast<std::size_t>(ctx.rank());
        const auto p = static_cast<std::size_t>(ctx.nprocs());

        // ----------------------------------------------- pyramid scatter
        // A rank's stripe of a full-size level-`level` band, and of one
        // pyramid level's three detail bands.
        const auto stripe_of = [&](const core::ImageF& full, std::size_t rank, int level) {
            const LevelRange lr = detail::level_range(part0, rank, level);
            return full.sub(lr.first, 0, lr.count, full.cols());
        };
        const auto bands_of = [&](std::size_t rank, int k) -> core::DetailBands {
            const auto& d = pyramid.levels[static_cast<std::size_t>(k)];
            return {stripe_of(d.lh, rank, k + 1), stripe_of(d.hl, rank, k + 1),
                    stripe_of(d.hh, rank, k + 1)};
        };
        core::ImageF current;  // my stripe of the running approximation
        std::vector<core::DetailBands> details(static_cast<std::size_t>(levels));
        if (cfg.scatter_gather && me == 0) {
            for (std::size_t i = 1; i < p; ++i) {
                ctx.send_span<float>(kTagScatterApprox, static_cast<int>(i),
                                     stripe_of(pyramid.approx, i, levels).flat());
                for (int k = 0; k < levels; ++k) {
                    // One message per level: LH, HL, HH stripes concatenated.
                    const core::DetailBands b = bands_of(i, k);
                    std::vector<float> payload;
                    detail::pack_bands(payload, {&b.lh, &b.hl, &b.hh});
                    ctx.send_span<float>(kTagScatterDetail + k, static_cast<int>(i),
                                         std::span<const float>(payload));
                }
            }
        }
        if (me == 0 || !cfg.scatter_gather) {
            current = stripe_of(pyramid.approx, me, levels);
            for (int k = 0; k < levels; ++k) {
                details[static_cast<std::size_t>(k)] = bands_of(me, k);
            }
        } else {
            const LevelRange lra = detail::level_range(part0, me, levels);
            current = core::ImageF(lra.count, cols >> levels,
                                   ctx.recv_vector<float>(kTagScatterApprox, 0));
            for (int k = 0; k < levels; ++k) {
                const auto data = ctx.recv_vector<float>(kTagScatterDetail + k, 0);
                auto b = detail::unpack_bands(data, detail::level_range(part0, me, k + 1).count,
                                              cols >> (k + 1), 3);
                details[static_cast<std::size_t>(k)] = {std::move(b[0]), std::move(b[1]),
                                                        std::move(b[2])};
            }
        }

        // ------------------------------------------- synthesis stages
        for (int stage = levels - 1; stage >= 0; --stage) {
            const LevelRange out_lr = detail::level_range(part0, me, stage);
            const LevelRange in_lr = detail::level_range(part0, me, stage + 1);
            const std::size_t half_rows = rows >> (stage + 1);
            const std::size_t half_c = cols >> (stage + 1);
            const auto& d = details[static_cast<std::size_t>(stage)];

            // ---- north guard exchange on all four coefficient bands ----
            // Every coefficient row my output rows read, local or not, lands
            // in the halo: 4 band rows per entry of `needed`.
            const auto needs = [&](std::size_t j) {
                const LevelRange jout = detail::level_range(part0, j, stage);
                return detail::synthesis_rows_needed(jout.first, jout.count, half_rows, taps,
                                                     cfg.mode);
            };
            const auto needed = needs(me);
            core::ImageF halo(4 * needed.size(), half_c);
            (void)detail::exchange_guard(
                ctx, detail::plain_link(ctx, kTagGuardBase + stage), part0, me, stage + 1,
                needs, 4 * half_c,
                [&](std::size_t g, std::vector<float>& out) {
                    const core::ImageF* bands[] = {&current, &d.lh, &d.hl, &d.hh};
                    for (const core::ImageF* band : bands) {
                        const auto r = band->row(g - in_lr.first);
                        out.insert(out.end(), r.begin(), r.end());
                    }
                },
                [&](std::size_t t, std::span<const float> line) {
                    for (std::size_t b = 0; b < 4; ++b) {
                        std::copy_n(line.begin() + static_cast<std::ptrdiff_t>(b * half_c),
                                    half_c, halo.row(4 * t + b).begin());
                    }
                },
                compute_model.per_output(), compute_model.per_output());

            // `needed` is sorted, so a row's halo slot is its rank in it.
            const auto band_row = [&](std::size_t band_slot) -> core::RowAccessor {
                return [&, band_slot](std::size_t k) -> const float* {
                    const auto t = static_cast<std::size_t>(
                        std::lower_bound(needed.begin(), needed.end(), k) - needed.begin());
                    return halo.row(4 * t + band_slot).data();
                };
            };

            // ---- column synthesis for my output rows, then local rows ----
            const std::size_t m0 = out_lr.first;
            const std::size_t m1 = out_lr.first + out_lr.count;
            core::ImageF low_rows(out_lr.count, half_c);
            core::ImageF high_rows(out_lr.count, half_c);
            core::synthesize_cols_tile(band_row(0), band_row(1), half_rows, half_c, fp,
                                       low_rows, cfg.mode, m0, m1);
            core::synthesize_cols_tile(band_row(2), band_row(3), half_rows, half_c, fp,
                                       high_rows, cfg.mode, m0, m1);
            core::ImageF out(out_lr.count, 2 * half_c);
            core::synthesize_rows_range(low_rows, high_rows, fp, out, cfg.mode, 0,
                                        out_lr.count);
            const std::size_t outputs = 2 * out_lr.count * (cols >> stage);
            ctx.compute(compute_model.seconds(outputs,
                                              outputs * static_cast<std::size_t>(taps)));
            ctx.compute(compute_model.per_level());
            current = std::move(out);
        }

        // ----------------------------------------------- image gather
        const LevelRange lr0 = detail::level_range(part0, me, 0);
        if (me == 0) {
            result.image.paste(current, lr0.first, 0);
            if (!cfg.scatter_gather) return;
            for (std::size_t i = 1; i < p; ++i) {
                int src = -1;
                auto data = ctx.recv_vector<float>(kTagGatherImage, mesh::kAnySource,
                                                   &src);
                const LevelRange lr =
                    detail::level_range(part0, static_cast<std::size_t>(src), 0);
                result.image.paste(core::ImageF(lr.count, cols, std::move(data)),
                                   lr.first, 0);
            }
        } else if (cfg.scatter_gather) {
            ctx.send_span<float>(kTagGatherImage, 0, current.flat());
        }
    };

    result.run = machine.run(
        nprocs, detail::placement(nprocs, machine.profile().topo.sx(), cfg.mapping), body);
    result.seconds = result.run.makespan;
    return result;
}

}  // namespace wavehpc::wavelet
