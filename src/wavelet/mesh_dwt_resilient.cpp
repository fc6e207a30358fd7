#include "wavelet/mesh_dwt_resilient.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "wavelet/mesh_dwt.hpp"

namespace wavehpc::wavelet {

namespace {

// Tag space: clear of the plain decomposition's tags (1..192) and far below
// the collectives' base (1 << 20). Stripe-data, guard, and response tags are
// all scoped by (level, attempt), so a frame from an aborted attempt can
// never satisfy a later attempt's wait — it just rots in the mailbox.
constexpr int kTagCtrl = 3000;
constexpr int kTagGuardBase = 3100;
constexpr int kTagRespBase = 3800;
constexpr int kTagDataBase = 4500;
constexpr int kMaxAttempts = 16;

constexpr int guard_tag(int level, int attempt) {
    return kTagGuardBase + level * kMaxAttempts + attempt;
}
constexpr int resp_tag(int level, int attempt) {
    return kTagRespBase + level * kMaxAttempts + attempt;
}
constexpr int data_tag(int level, int attempt) {
    return kTagDataBase + level * kMaxAttempts + attempt;
}

constexpr float kRespGather = 0.0F;
constexpr float kRespFail = 1.0F;
constexpr std::int32_t kLevelDone = -1;

std::vector<float> to_floats(const mesh::Message& m) {
    if (m.data.size() % sizeof(float) != 0) {
        throw std::runtime_error("mesh_decompose_resilient: misaligned float payload");
    }
    std::vector<float> v(m.data.size() / sizeof(float));
    std::memcpy(v.data(), m.data.data(), m.data.size());
    return v;
}

std::vector<std::int32_t> to_ints(const mesh::Message& m) {
    if (m.data.size() % sizeof(std::int32_t) != 0) {
        throw std::runtime_error("mesh_decompose_resilient: misaligned int payload");
    }
    std::vector<std::int32_t> v(m.data.size() / sizeof(std::int32_t));
    std::memcpy(v.data(), m.data.data(), m.data.size());
    return v;
}

/// Control frame: level header + the partition's worker->rank table.
/// row_count == 0 marks an idle attempt (rank sits this level out).
std::vector<std::int32_t> make_ctrl(int level, int attempt, std::size_t w_count,
                                    int my_index, std::size_t row_count,
                                    std::size_t level_rows, std::size_t level_cols,
                                    const std::vector<int>& ranks) {
    std::vector<std::int32_t> c = {level,
                                   attempt,
                                   static_cast<std::int32_t>(w_count),
                                   my_index,
                                   static_cast<std::int32_t>(row_count),
                                   static_cast<std::int32_t>(level_rows),
                                   static_cast<std::int32_t>(level_cols)};
    c.insert(c.end(), ranks.begin(), ranks.end());
    return c;
}

}  // namespace

ResilientDwtResult mesh_decompose_resilient(mesh::Machine& machine,
                                            const core::ImageF& img,
                                            const core::FilterPair& fp,
                                            const ResilientDwtConfig& cfg,
                                            std::size_t nprocs,
                                            const core::SequentialCostModel& compute_model) {
    core::validate_decomposition_request(img.rows(), img.cols(), cfg.levels);
    if (nprocs == 0) {
        throw std::invalid_argument("mesh_decompose_resilient: nprocs must be > 0");
    }
    if (machine.profile().faults.fail_time(0).has_value()) {
        throw std::invalid_argument(
            "mesh_decompose_resilient: rank 0 holds the checkpoint and must not "
            "fail-stop");
    }
    if (cfg.detect_timeout <= 0.0) {
        throw std::invalid_argument("mesh_decompose_resilient: detect_timeout <= 0");
    }
    const int max_attempts = std::clamp(cfg.max_attempts_per_level, 1, kMaxAttempts);

    ResilientDwtResult result;
    result.pyramid = detail::pyramid_shell(img.rows(), img.cols(), cfg.levels);

    const auto body = [&](mesh::NodeCtx& ctx) {
        const auto send_bytes = [&](int tag, int dst, std::span<const std::byte> b,
                                    const mesh::ReliableParams& params) {
            return ctx.csend_reliable(tag, dst, b, params);
        };
        const auto send_i32 = [&](int tag, int dst, const std::vector<std::int32_t>& v,
                                  const mesh::ReliableParams& params) {
            return send_bytes(tag, dst, std::as_bytes(std::span<const std::int32_t>(v)),
                              params);
        };
        const auto send_f32 = [&](int tag, int dst, const std::vector<float>& v,
                                  const mesh::ReliableParams& params) {
            return send_bytes(tag, dst, std::as_bytes(std::span<const float>(v)), params);
        };

        // A level attempt's guard link: reliable sends and timed receives on
        // attempt-scoped tags, with every peer that stops answering appended
        // to `dead`, so the stripe's level returns nullopt.
        const auto reliable_link = [&](int level, int attempt, const std::vector<int>& ranks,
                                       std::vector<int>& dead) {
            const int tag = guard_tag(level, attempt);
            return detail::GuardLink{
                [&, tag](std::size_t j, std::span<const float> floats) {
                    if (send_bytes(tag, ranks[j], std::as_bytes(floats), cfg.reliable)) {
                        return true;
                    }
                    dead.push_back(ranks[j]);
                    return false;
                },
                [&, tag](std::size_t j) -> std::optional<std::vector<float>> {
                    auto m = ctx.crecv_timeout(tag, ranks[j], cfg.detect_timeout);
                    if (!m.has_value()) {
                        dead.push_back(ranks[j]);
                        return std::nullopt;
                    }
                    return to_floats(*m);
                }};
        };

        // ------------------------------------------------------ worker loop
        if (ctx.rank() != 0) {
            for (;;) {
                const auto ctrl = to_ints(ctx.crecv(kTagCtrl, 0));
                const int level = static_cast<int>(ctrl.at(0));
                if (level == kLevelDone) return;
                const int attempt = static_cast<int>(ctrl.at(1));
                const auto w_count = static_cast<std::size_t>(ctrl.at(2));
                const auto my_index = static_cast<std::size_t>(ctrl.at(3));
                const auto row_count = static_cast<std::size_t>(ctrl.at(4));
                const auto level_rows = static_cast<std::size_t>(ctrl.at(5));
                const auto level_cols = static_cast<std::size_t>(ctrl.at(6));
                if (row_count == 0) continue;  // idle this attempt
                std::vector<int> ranks(ctrl.begin() + 7,
                                       ctrl.begin() + 7 +
                                           static_cast<std::ptrdiff_t>(w_count));

                std::optional<mesh::ScopedRecovery> rec;
                if (attempt > 0) rec.emplace(ctx);

                auto dm = ctx.crecv_timeout(data_tag(level, attempt), 0,
                                            cfg.detect_timeout);
                if (!dm.has_value()) continue;  // scatter was aborted upstream
                core::ImageF stripe(row_count, level_cols, to_floats(*dm));

                const core::StripePartition part(level_rows, w_count, 2);
                std::vector<int> dead;
                auto work = detail::stripe_level(
                    ctx, reliable_link(level, attempt, ranks, dead), part, my_index, 0,
                    stripe, fp, cfg.mode, compute_model);

                std::vector<float> resp;
                if (!work.has_value()) {
                    resp.push_back(kRespFail);
                    for (int d : dead) resp.push_back(static_cast<float>(d));
                } else {
                    resp.push_back(kRespGather);
                    detail::pack_bands(resp, {&work->ll, &work->bands.lh, &work->bands.hl,
                                              &work->bands.hh});
                }
                // If even the reliable response cannot get through, rank 0's
                // collect timeout classifies us dead; converges either way.
                (void)send_f32(resp_tag(level, attempt), 0, resp, cfg.reliable);
            }
        }

        // ------------------------------------------------------- rank 0 hub
        core::ImageF current = img;  // level-boundary checkpoint
        std::vector<int> alive;
        alive.reserve(nprocs);
        for (std::size_t r = 0; r < nprocs; ++r) alive.push_back(static_cast<int>(r));

        for (int level = 0; level < cfg.levels; ++level) {
            const std::size_t level_rows = img.rows() >> level;
            const std::size_t level_cols = img.cols() >> level;
            const std::size_t half_c = level_cols / 2;

            for (int attempt = 0;; ++attempt) {
                if (attempt >= max_attempts) {
                    throw std::runtime_error(
                        "mesh_decompose_resilient: level " + std::to_string(level) +
                        " still failing after " + std::to_string(max_attempts) +
                        " attempts");
                }
                std::optional<mesh::ScopedRecovery> rec;
                if (attempt > 0) {
                    rec.emplace(ctx);
                    ++result.level_retries;
                }

                const std::size_t w_count = std::min(alive.size(), level_rows / 2);
                const std::vector<int> ranks(alive.begin(),
                                             alive.begin() +
                                                 static_cast<std::ptrdiff_t>(w_count));
                const core::StripePartition part(level_rows, w_count, 2);
                std::vector<int> newly_dead;

                // Scatter stripes to the live workers; a failed reliable
                // send marks the peer dead and aborts this attempt.
                bool scatter_ok = true;
                for (std::size_t idx = 1; idx < w_count; ++idx) {
                    const auto ctrl = make_ctrl(level, attempt, w_count,
                                                static_cast<int>(idx), part.height(idx),
                                                level_rows, level_cols, ranks);
                    if (!send_i32(kTagCtrl, ranks[idx], ctrl, cfg.reliable)) {
                        newly_dead.push_back(ranks[idx]);
                        scatter_ok = false;
                        break;
                    }
                    const core::ImageF block = current.sub(part.first_row(idx), 0,
                                                           part.height(idx), level_cols);
                    if (!send_bytes(data_tag(level, attempt), ranks[idx],
                                    std::as_bytes(block.flat()), cfg.reliable)) {
                        newly_dead.push_back(ranks[idx]);
                        scatter_ok = false;
                        break;
                    }
                }
                // Ranks alive but surplus to this level's stripes idle until
                // the next control frame.
                for (std::size_t idx = w_count; idx < alive.size(); ++idx) {
                    const auto ctrl = make_ctrl(level, attempt, 0, -1, 0, level_rows,
                                                level_cols, {});
                    if (!send_i32(kTagCtrl, alive[idx], ctrl, cfg.reliable)) {
                        newly_dead.push_back(alive[idx]);
                    }
                }

                std::optional<detail::LevelBands> own;
                std::vector<std::optional<std::vector<float>>> resp(w_count);
                if (scatter_ok) {
                    std::vector<int> dead0;
                    const core::ImageF own_stripe =
                        current.sub(part.first_row(0), 0, part.height(0), level_cols);
                    own = detail::stripe_level(
                        ctx, reliable_link(level, attempt, ranks, dead0), part, 0, 0,
                        own_stripe, fp, cfg.mode, compute_model);
                    newly_dead.insert(newly_dead.end(), dead0.begin(), dead0.end());

                    for (std::size_t idx = 1; idx < w_count; ++idx) {
                        auto m = ctx.crecv_timeout(resp_tag(level, attempt), ranks[idx],
                                                   cfg.detect_timeout);
                        if (!m.has_value()) {
                            newly_dead.push_back(ranks[idx]);
                            continue;
                        }
                        auto v = to_floats(*m);
                        if (v.empty()) {
                            throw std::logic_error(
                                "mesh_decompose_resilient: empty response");
                        }
                        if (v[0] == kRespFail) {
                            for (std::size_t i = 1; i < v.size(); ++i) {
                                newly_dead.push_back(static_cast<int>(v[i]));
                            }
                        } else {
                            resp[idx] = std::move(v);
                        }
                    }
                }

                // Rank 0 never dies (validated), so filter it from reports.
                std::sort(newly_dead.begin(), newly_dead.end());
                newly_dead.erase(std::unique(newly_dead.begin(), newly_dead.end()),
                                 newly_dead.end());
                newly_dead.erase(std::remove(newly_dead.begin(), newly_dead.end(), 0),
                                 newly_dead.end());

                // Commit only when every stripe actually arrived. A worker can
                // falsely suspect rank 0 (its guard frame delayed past the
                // detect timeout) and answer kRespFail naming only rank 0 —
                // the filter above then leaves newly_dead empty while that
                // worker's resp slot is disengaged, so the level must be
                // retried, not committed.
                bool gathered = own.has_value();
                for (std::size_t idx = 1; gathered && idx < w_count; ++idx) {
                    gathered = resp[idx].has_value();
                }

                if (newly_dead.empty() && gathered) {
                    // Commit the level: paste every stripe into the pyramid
                    // and build the next checkpoint.
                    core::ImageF next(level_rows / 2, half_c);
                    auto& dst = result.pyramid.levels[static_cast<std::size_t>(level)];
                    const auto commit = [&](std::size_t idx, const core::ImageF& ll,
                                            const core::DetailBands& b) {
                        const std::size_t out_first = part.first_row(idx) / 2;
                        dst.lh.paste(b.lh, out_first, 0);
                        dst.hl.paste(b.hl, out_first, 0);
                        dst.hh.paste(b.hh, out_first, 0);
                        next.paste(ll, out_first, 0);
                    };
                    commit(0, own->ll, own->bands);
                    for (std::size_t idx = 1; idx < w_count; ++idx) {
                        auto b = detail::unpack_bands(std::span<const float>(*resp[idx]).subspan(1),
                                                      part.height(idx) / 2, half_c, 4);
                        commit(idx, b[0], {std::move(b[1]), std::move(b[2]), std::move(b[3])});
                    }
                    current = std::move(next);
                    break;  // next level
                }

                // Re-stripe over the survivors and redo from the checkpoint.
                for (int d : newly_dead) {
                    alive.erase(std::remove(alive.begin(), alive.end(), d), alive.end());
                    result.failed_ranks.push_back(d);
                }
            }
        }

        result.pyramid.approx = std::move(current);

        // Release every worker — including any falsely-suspected live ones
        // still parked on the control channel — with a high-retry goodbye.
        mesh::ReliableParams bye = cfg.reliable;
        bye.max_retries = std::max(bye.max_retries, 30);
        const std::vector<std::int32_t> done = {kLevelDone};
        for (std::size_t r = 1; r < nprocs; ++r) {
            (void)send_i32(kTagCtrl, static_cast<int>(r), done, bye);
        }
    };

    result.run = machine.run(
        nprocs, detail::placement(nprocs, machine.profile().topo.sx(), cfg.mapping), body);
    result.seconds = result.run.makespan;
    return result;
}

}  // namespace wavehpc::wavelet
