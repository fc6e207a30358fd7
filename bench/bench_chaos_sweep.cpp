// Availability sweep for the chaos-hardened pyramid service (ISSUE 5):
// seeded Poisson arrivals (the load bench's open loop and request mix)
// swept across a fault-rate axis x an offered-load axis. Each point runs a
// fresh service under a ChaosPlan that injects compute faults, allocation
// failures, result-buffer corruption, and pool-dispatch stalls at the
// point's rate; the report is goodput (value replies / offered), retries,
// quarantines, breaker rejects, degraded replies, CRC catches, and p99.
//
// Every delivered reply is re-verified out of band: its buffer must pass
// the CRC audit (a corrupted result must never escape), and non-degraded
// popular-scene replies must stay bit-identical to a sequential reference.
// The arrival process, mix, and scene pool come from common_load.hpp,
// shared with bench_service_load and bench_shard_sweep.
//
// --smoke: two fault rates {0, 1e-2} x two load factors, fewer arrivals,
// then asserts goodput >= 95% at every point, zero CRC escapes, zero
// mismatches, and balanced accounting.
//
// Extra flags (via the shared parser's hook):
//   --requests N   arrivals per sweep point (default 300, smoke 120)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common_args.hpp"
#include "common_load.hpp"
#include "perf/histogram.hpp"
#include "perf/report.hpp"
#include "svc/cache.hpp"
#include "svc/metrics.hpp"
#include "svc/service.hpp"
#include "testing/invariants.hpp"
#include "testing/seeds.hpp"

namespace {

namespace load = wavehpc::bench::load;
using wavehpc::bench::CommonArgs;
using wavehpc::bench::Consume;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::perf::TableWriter;
using wavehpc::runtime::ThreadPool;
using wavehpc::svc::Backend;
using wavehpc::svc::ChaosPlan;
using wavehpc::svc::PyramidService;
using wavehpc::svc::ServiceConfig;
using wavehpc::svc::TransformRequest;
using wavehpc::testing::SplitMix64;

using Clock = std::chrono::steady_clock;

/// Fault plan at a sweep rate: compute faults dominate, corruption and
/// alloc failures ride along at lower rates, plus 1 ms pool stalls.
ChaosPlan plan_at(double rate, std::uint64_t seed) {
    if (rate <= 0.0) return {};  // disabled: the chaos-off baseline row
    char spec[160];
    std::snprintf(spec, sizeof spec,
                  "compute=%g,corrupt=%g,alloc=%g,pool_stall=%g,pool_stall_ms=1",
                  rate, rate * 0.5, rate * 0.25, rate);
    return ChaosPlan::parse(spec, seed);
}

struct PointResult {
    double fault_rate = 0.0;
    double offered_rps = 0.0;
    double wall_seconds = 0.0;
    wavehpc::svc::MetricsSnapshot metrics;
    wavehpc::svc::CacheStats cache;
    wavehpc::svc::ChaosStats chaos;
    std::uint64_t delivered = 0;   // futures resolved with a value
    std::uint64_t failed = 0;      // futures resolved with an error
    std::uint64_t crc_escapes = 0; // delivered buffers failing the audit
    std::uint64_t verified = 0;    // exact scene-0 replies checked
    std::uint64_t mismatches = 0;

    [[nodiscard]] double goodput() const {
        const auto submitted = metrics.counters.submitted;
        return submitted == 0
                   ? 0.0
                   : static_cast<double>(delivered) / static_cast<double>(submitted);
    }
};

PointResult run_point(ThreadPool& pool, const ServiceConfig& cfg,
                      const std::vector<std::shared_ptr<const ImageF>>& scenes,
                      const std::vector<Pyramid>& scene0_refs, double fault_rate,
                      double offered_rps, std::size_t n_requests,
                      std::uint64_t seed) {
    PyramidService service(pool, cfg);
    service.set_chaos_plan(plan_at(fault_rate, seed));
    pool.set_task_observer(service.chaos().pool_observer());
    load::PoissonOpenLoop gen(seed, offered_rps, scenes.size());
    SplitMix64 rng(seed ^ 0x9E3779B97F4A7C15ULL);  // bench-local draws

    struct Pending {
        wavehpc::svc::TransformFuture future;
        std::size_t scene;
        std::size_t mix;
    };
    std::vector<Pending> pending;
    pending.reserve(n_requests);

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n_requests; ++i) {
        const load::Arrival a = gen.next();
        load::sleep_until_offset(t0, a.at_seconds);
        TransformRequest req;
        req.image = scenes[a.scene];
        req.taps = load::kTable1Mix[a.mix].taps;
        req.levels = load::kTable1Mix[a.mix].levels;
        req.backend = Backend::Threads;
        // A quarter of the clients tolerate a degraded (cached-variant)
        // reply, modelling browse traffic that prefers stale to nothing.
        req.allow_degraded = rng.below(4) == 0;
        auto sub = service.submit(req);
        if (sub.accepted) pending.push_back({std::move(sub.future), a.scene, a.mix});
    }

    PointResult out;
    out.fault_rate = fault_rate;
    out.offered_rps = offered_rps;
    for (auto& p : pending) {
        try {
            const auto reply = p.future.get();
            ++out.delivered;
            // Out-of-band integrity audit of what the client actually got.
            if (!wavehpc::svc::audit_result(*reply.result)) ++out.crc_escapes;
            if (p.scene == 0 && !reply.degraded) {
                ++out.verified;
                if (!wavehpc::testing::pyramids_bit_identical(reply.result->pyramid,
                                                              scene0_refs[p.mix])) {
                    ++out.mismatches;
                }
            }
        } catch (const std::exception&) {
            ++out.failed;  // honest failure (retries exhausted, watchdog, ...)
        }
    }
    out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    out.metrics = service.metrics();
    out.cache = service.cache_stats();
    out.chaos = service.chaos_stats();
    service.shutdown();  // drains before the observer's engine goes away
    pool.set_task_observer({});
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    CommonArgs args;
    std::uint64_t requests_flag = 0;
    const auto extra = [&requests_flag](std::string_view flag,
                                        std::string_view value) {
        if (flag == "--requests" &&
            wavehpc::bench::detail::parse_u64(value, requests_flag)) {
            return Consume::kFlagAndValue;
        }
        return Consume::kNo;
    };
    if (!wavehpc::bench::parse_bench_args(argc, argv, args, extra)) return 2;

    const std::size_t edge =
        wavehpc::bench::or_default<std::size_t>(args.size, args.smoke ? 128 : 256);
    const std::uint64_t seed = wavehpc::bench::or_default<std::uint64_t>(args.seed, 1996);
    const std::size_t n_requests = static_cast<std::size_t>(
        wavehpc::bench::or_default<std::uint64_t>(requests_flag,
                                                  args.smoke ? 120 : 300));

    const std::vector<double> fault_rates =
        args.smoke ? std::vector<double>{0.0, 1e-2}
                   : std::vector<double>{0.0, 1e-3, 1e-2, 5e-2};
    const std::vector<double> load_factors = {0.5, 2.0};

    std::cout << "=== Pyramid service chaos sweep ===\n"
              << edge << "x" << edge << " scenes, pool of " << load::kDefaultScenes
              << ", seed " << seed << ", " << n_requests
              << " Poisson arrivals per point; plan per fault rate R: "
                 "compute=R, corrupt=R/2, alloc=R/4, pool_stall=R (1 ms)\n\n";

    const auto scenes = load::make_scene_pool(edge, seed);
    const auto scene0_refs = load::make_scene0_refs(*scenes[0]);

    ThreadPool pool(std::max(2U, std::thread::hardware_concurrency()));
    ServiceConfig cfg = ServiceConfig::from_env();  // WAVEHPC_SVC_* apply
    // Millisecond-scale backoff keeps the sweep's wall time bounded while
    // still exercising the retry path (override via WAVEHPC_SVC_RETRY_*).
    cfg.resilience.retry.base_seconds =
        std::min(cfg.resilience.retry.base_seconds, 0.002);
    cfg.resilience.retry.cap_seconds =
        std::min(cfg.resilience.retry.cap_seconds, 0.008);

    // Capacity estimate (the load bench's): mix-weighted cold compute.
    const double weighted_compute = load::measure_weighted_cold_compute(*scenes[0]);
    const double capacity_rps =
        static_cast<double>(cfg.max_concurrency) / weighted_compute;
    std::cout << "measured cold compute (mix-weighted): "
              << wavehpc::perf::format_latency(weighted_compute)
              << "  -> cold capacity ~" << TableWriter::num(capacity_rps, 1)
              << " rps at concurrency " << cfg.max_concurrency << "\n\n";

    std::vector<PointResult> points;
    std::size_t k = 0;
    for (const double rate : fault_rates) {
        for (const double factor : load_factors) {
            const double rps = capacity_rps * factor;
            points.push_back(run_point(pool, cfg, scenes, scene0_refs, rate, rps,
                                       n_requests,
                                       wavehpc::testing::derive_seed(seed, k)));
            const auto& p = points.back();
            std::cout << "--- fault rate " << rate << ", offered "
                      << TableWriter::num(p.offered_rps, 1) << " rps ("
                      << TableWriter::num(factor, 1) << "x cold capacity), wall "
                      << TableWriter::num(p.wall_seconds, 2) << " s ---\n";
            wavehpc::svc::print_service_metrics(std::cout, "service", p.metrics,
                                                p.cache);
            if (p.chaos.draws > 0) {
                std::cout << "chaos: draws=" << p.chaos.draws
                          << " compute_errors=" << p.chaos.compute_errors
                          << " alloc_failures=" << p.chaos.alloc_failures
                          << " corruptions=" << p.chaos.corruptions
                          << " pool_stalls=" << p.chaos.pool_stalls << "\n";
            }
            std::cout << '\n';
            ++k;
        }
    }

    TableWriter sweep({"fault rate", "offered rps", "goodput", "degraded",
                       "retries", "quarantined", "breaker_rej", "crc_caught",
                       "escapes", "p99"});
    for (const auto& p : points) {
        const auto& c = p.metrics.counters;
        sweep.add_row({TableWriter::num(p.fault_rate, 3),
                       TableWriter::num(p.offered_rps, 1),
                       TableWriter::pct(p.goodput()),
                       std::to_string(c.degraded_replies),
                       std::to_string(c.retries), std::to_string(c.quarantined),
                       std::to_string(c.breaker_rejects),
                       std::to_string(c.crc_audit_failures),
                       std::to_string(p.crc_escapes),
                       wavehpc::perf::format_latency(p.metrics.total.quantile(0.99))});
    }
    sweep.print(std::cout);

    std::uint64_t escapes = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t verified = 0;
    bool accounted = true;
    bool chaos_drawn = false;
    double min_goodput = 1.0;
    for (const auto& p : points) {
        escapes += p.crc_escapes;
        mismatches += p.mismatches;
        verified += p.verified;
        min_goodput = std::min(min_goodput, p.goodput());
        const auto& c = p.metrics.counters;
        accounted = accounted && (c.submitted == c.accepted + c.rejected) &&
                    (c.accepted == c.completed + c.deadline_failures +
                                       c.shutdown_failures + c.compute_failures +
                                       c.watchdog_timeouts) &&
                    (p.delivered + p.failed == c.accepted);
        chaos_drawn = chaos_drawn || p.chaos.draws > 0;
    }
    std::cout << "\nintegrity: " << escapes << " CRC escapes, " << mismatches
              << " mismatches over " << verified
              << " exact scene-0 replies; min goodput "
              << TableWriter::pct(min_goodput) << "\n";

    if (args.smoke) {
        const bool ok = accounted && chaos_drawn && escapes == 0 &&
                        mismatches == 0 && verified > 0 && min_goodput >= 0.95;
        std::cout << "smoke: " << (ok ? "OK" : "FAILED")
                  << " (expects balanced accounting, faults actually injected, "
                     "goodput >= 95% at every point, zero CRC escapes, "
                     "bit-identical exact replies)\n";
        return ok ? 0 : 1;
    }
    return escapes == 0 && mismatches == 0 ? 0 : 1;
}
