#include "wavelet/mesh_idwt.hpp"

#include <map>
#include <set>

#include "core/kernels.hpp"
#include "wavelet/mesh_dwt.hpp"  // detail::level_range

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

    const auto placement2 =
        core::make_placement(nprocs, machine.profile().topo.sx(), cfg.mapping);
    std::vector<mesh::Coord3> placement;
    for (auto c : placement2) placement.push_back({c.x, c.y, 0});

    const int taps = fp.taps();
    MeshIdwtResult result;
    result.image = core::ImageF(rows, cols);

    const auto body = [&](mesh::NodeCtx& ctx) {
        const auto me = static_cast<std::size_t>(ctx.rank());
        const auto p = static_cast<std::size_t>(ctx.nprocs());

        // ----------------------------------------------- pyramid scatter
        core::ImageF current;  // my stripe of the running approximation
        std::vector<core::DetailBands> details(static_cast<std::size_t>(levels));
        const auto stripe_of = [&](const core::ImageF& full, int level) {
            const LevelRange lr = detail::level_range(part0, me, level);
            return full.sub(lr.first, 0, lr.count, full.cols());
        };
        if (cfg.scatter_gather && me == 0) {
            for (std::size_t i = 1; i < p; ++i) {
                const auto send_stripe = [&](const core::ImageF& full, int level,
                                             int tag) {
                    const LevelRange lr = detail::level_range(part0, i, level);
                    const core::ImageF s = full.sub(lr.first, 0, lr.count, full.cols());
                    ctx.send_span<float>(tag, static_cast<int>(i), s.flat());
                };
                send_stripe(pyramid.approx, levels, kTagScatterApprox);
                for (int k = 0; k < levels; ++k) {
                    const auto& d = pyramid.levels[static_cast<std::size_t>(k)];
                    // One message per level: LH, HL, HH stripes concatenated.
                    const LevelRange lr = detail::level_range(part0, i, k + 1);
                    std::vector<float> payload;
                    for (const core::ImageF* band : {&d.lh, &d.hl, &d.hh}) {
                        const core::ImageF s =
                            band->sub(lr.first, 0, lr.count, band->cols());
                        payload.insert(payload.end(), s.flat().begin(), s.flat().end());
                    }
                    ctx.send_span<float>(kTagScatterDetail + k, static_cast<int>(i),
                                         std::span<const float>(payload));
                }
            }
        }
        if (me == 0 || !cfg.scatter_gather) {
            current = stripe_of(pyramid.approx, levels);
            for (int k = 0; k < levels; ++k) {
                const auto& d = pyramid.levels[static_cast<std::size_t>(k)];
                details[static_cast<std::size_t>(k)] = {stripe_of(d.lh, k + 1),
                                                        stripe_of(d.hl, k + 1),
                                                        stripe_of(d.hh, k + 1)};
            }
        } else {
            auto adata = ctx.recv_vector<float>(kTagScatterApprox, 0);
            const LevelRange lra = detail::level_range(part0, me, levels);
            current = core::ImageF(lra.count, cols >> levels, std::move(adata));
            for (int k = 0; k < levels; ++k) {
                const auto data = ctx.recv_vector<float>(kTagScatterDetail + k, 0);
                const LevelRange lr = detail::level_range(part0, me, k + 1);
                const std::size_t band = lr.count * (cols >> (k + 1));
                if (data.size() != 3 * band) {
                    throw std::logic_error("mesh_reconstruct: bad scatter payload");
                }
                const auto slice = [&](std::size_t idx) {
                    return core::ImageF(
                        lr.count, cols >> (k + 1),
                        std::vector<float>(
                            data.begin() + static_cast<std::ptrdiff_t>(idx * band),
                            data.begin() + static_cast<std::ptrdiff_t>((idx + 1) * band)));
                };
                details[static_cast<std::size_t>(k)] = {slice(0), slice(1), slice(2)};
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
            // Send what others need from my coefficient rows ...
            for (std::size_t j = 0; j < p; ++j) {
                if (j == me) continue;
                const LevelRange jout = detail::level_range(part0, j, stage);
                const auto needed = detail::synthesis_rows_needed(
                    jout.first, jout.count, half_rows, taps, cfg.mode);
                std::vector<float> payload;
                for (std::size_t g : needed) {
                    if (g < in_lr.first || g >= in_lr.first + in_lr.count) continue;
                    const std::size_t local = g - in_lr.first;
                    const core::ImageF* bands[] = {&current, &d.lh, &d.hl, &d.hh};
                    for (const core::ImageF* band : bands) {
                        const auto r = band->row(local);
                        payload.insert(payload.end(), r.begin(), r.end());
                    }
                }
                if (payload.empty()) continue;
                ctx.compute_redundant(compute_model.per_output() *
                                      static_cast<double>(payload.size()));
                ctx.send_span<float>(kTagGuardBase + stage, static_cast<int>(j),
                                     std::span<const float>(payload));
            }
            // ... and collect what I need, keyed by global coefficient row.
            const auto needed = detail::synthesis_rows_needed(
                out_lr.first, out_lr.count, half_rows, taps, cfg.mode);
            std::map<std::size_t, std::size_t> halo_index;  // global row -> slot
            std::vector<std::size_t> missing;
            for (std::size_t g : needed) {
                if (g < in_lr.first || g >= in_lr.first + in_lr.count) {
                    halo_index[g] = missing.size();
                    missing.push_back(g);
                }
            }
            // 4 band rows per halo slot.
            core::ImageF halo(4 * std::max<std::size_t>(missing.size(), 1), half_c,
                              0.0F);
            std::map<std::size_t, std::vector<float>> from_owner;
            std::map<std::size_t, std::size_t> cursor;
            for (std::size_t g : missing) {
                const std::size_t o = part0.owner(g << (stage + 1));
                if (from_owner.find(o) == from_owner.end()) {
                    from_owner[o] = ctx.recv_vector<float>(kTagGuardBase + stage,
                                                           static_cast<int>(o));
                    cursor[o] = 0;
                }
                auto& buf = from_owner.at(o);
                std::size_t& cur = cursor.at(o);
                if ((cur + 4) * half_c > buf.size()) {
                    throw std::logic_error("mesh_reconstruct: guard underflow");
                }
                for (std::size_t b = 0; b < 4; ++b) {
                    std::copy_n(
                        buf.begin() + static_cast<std::ptrdiff_t>((cur + b) * half_c),
                        half_c, halo.row(4 * halo_index.at(g) + b).begin());
                }
                cur += 4;
                ctx.compute_redundant(compute_model.per_output() *
                                      static_cast<double>(4 * half_c));
            }

            const auto band_row = [&](const core::ImageF& own,
                                      std::size_t band_slot) -> core::RowAccessor {
                return [&, band_slot](std::size_t k) -> const float* {
                    if (k >= in_lr.first && k < in_lr.first + in_lr.count) {
                        return own.row(k - in_lr.first).data();
                    }
                    return halo.row(4 * halo_index.at(k) + band_slot).data();
                };
            };

            // ---- column synthesis for my output rows, then local rows ----
            const std::size_t m0 = out_lr.first;
            const std::size_t m1 = out_lr.first + out_lr.count;
            core::ImageF low_rows(out_lr.count, half_c);
            core::ImageF high_rows(out_lr.count, half_c);
            core::synthesize_cols_tile(band_row(current, 0), band_row(d.lh, 1), half_rows,
                                       half_c, fp, low_rows, cfg.mode, m0, m1);
            core::synthesize_cols_tile(band_row(d.hl, 2), band_row(d.hh, 3), half_rows,
                                       half_c, fp, high_rows, cfg.mode, m0, m1);
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

    result.run = machine.run(nprocs, placement, body);
    result.seconds = result.run.makespan;
    return result;
}

}  // namespace wavehpc::wavelet
