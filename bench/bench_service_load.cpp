// Open-loop load generator for the pyramid service (ISSUE 4): seeded
// Poisson arrivals over a small scene pool with skewed popularity and the
// paper's request mix — (8,1) 40%, (4,2) 35%, (2,4) 25% — swept across
// three offered-load points scaled off the measured cold-compute capacity.
// Each point gets a fresh service; the report is throughput, tail latency
// (p50/p95/p99 from the service histograms), admission rejects, and cache
// behaviour. Every reply for the most popular scene is checked
// bit-identical against an out-of-band sequential decomposition. The
// arrival process, mix, and scene pool come from common_load.hpp, shared
// with bench_chaos_sweep and bench_shard_sweep.
//
// --smoke: fewer requests per point and a smaller scene, then asserts the
// accounting invariants (submitted = completed + rejected, a cache hit on a
// drained key at every point, zero bit-identity mismatches) so CI exercises
// the whole service path.
//
// --soak (ISSUE 8): after the sweep, a sustained seeded closed-loop soak —
// default one MILLION requests — through a single long-lived service, with
// a warmup half-phase and gates asserting the warm phase allocated nothing
// (arena miss + heap-fallback deltas zero), fused batches formed, sampled
// replies stayed bit-identical, and warm throughput cleared 1.3x the best
// sweep done-rps. The soak section lands in the JSON artifact too.
//
// Extra flags (via the shared parser's hook):
//   --requests N      arrivals per load point (default 400, smoke 120)
//   --json PATH       also write the sweep as JSON (the per-PR BENCH_service
//                     artifact: offered/done rps, p50/p95/p99, hit rate)
//   --soak            run the sustained soak after the sweep
//   --soak-requests N soak length (default 1000000, smoke 20000)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "common_args.hpp"
#include "common_load.hpp"
#include "perf/report.hpp"
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
using wavehpc::svc::PyramidService;
using wavehpc::svc::ServiceConfig;
using wavehpc::svc::TransformRequest;

using Clock = std::chrono::steady_clock;

struct PointResult {
    double offered_rps = 0.0;
    double wall_seconds = 0.0;
    wavehpc::svc::MetricsSnapshot metrics;
    wavehpc::svc::CacheStats cache;
    std::uint64_t verified = 0;    // scene-0 replies checked for bit-identity
    std::uint64_t mismatches = 0;  // ...and how many failed the check
    // A resubmit of a drained reply's (scene, mix) was a cache hit with
    // that reply's pyramid bits.
    bool replay_hit = false;
};

PointResult run_point(ThreadPool& pool, const ServiceConfig& cfg,
                      const std::vector<std::shared_ptr<const ImageF>>& scenes,
                      const std::vector<Pyramid>& scene0_refs, double offered_rps,
                      std::size_t n_requests, std::uint64_t seed) {
    PyramidService service(pool, cfg);
    load::PoissonOpenLoop gen(seed, offered_rps, scenes.size());

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
        auto sub = service.submit(req);
        if (sub.accepted) pending.push_back({std::move(sub.future), a.scene, a.mix});
    }

    PointResult out;
    out.offered_rps = offered_rps;
    for (auto& p : pending) {
        const auto reply = p.future.get();
        if (p.scene == 0) {
            ++out.verified;
            if (!wavehpc::testing::pyramids_bit_identical(reply.result->pyramid,
                                                          scene0_refs[p.mix])) {
                ++out.mismatches;
            }
        }
    }
    out.wall_seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    out.metrics = service.metrics();
    out.cache = service.cache_stats();
    // The natural hit rate depends on timing: when computes stall, every
    // repeat joins an in-flight compute instead. A drained key is cached
    // (a flight's settle inserts before it fulfils its waiters), so its
    // resubmit must hit whatever the timing, with the same bits.
    if (!pending.empty()) {
        const Pending& last = pending.back();
        TransformRequest req;
        req.image = scenes[last.scene];
        req.taps = load::kTable1Mix[last.mix].taps;
        req.levels = load::kTable1Mix[last.mix].levels;
        req.backend = Backend::Threads;
        auto sub = service.submit(req);
        if (sub.accepted) {
            const auto replay = sub.future.get();
            out.replay_hit = replay.cache_hit &&
                             wavehpc::testing::pyramids_bit_identical(
                                 replay.result->pyramid, last.future.get().result->pyramid);
        }
    }
    service.shutdown();
    return out;
}

// ---------------------------------------------------------------- soak
//
// Sustained closed-loop soak (ISSUE 8). kSoakClients client threads each
// keep a bounded window of in-flight requests: 80% of draws hit the hot
// scene pool (scene 0 still the most popular), 20% a larger cold pool
// whose key universe deliberately overflows the cache budget, so the warm
// phase keeps computing — exercising the batch planner and the slab
// arena — while staying hit-dominated like real browse traffic. One
// service lives through both phases: a warmup that populates the cache
// and grows the slab pool to its peak working set, then the measured warm
// remainder. The soak gates assert the warm phase allocated NOTHING
// (arena miss and heap-fallback deltas both zero), that fused batches
// actually formed, and that sampled scene-0 replies stayed bit-identical
// to the out-of-band sequential reference.

constexpr std::size_t kSoakClients = 4;
constexpr std::size_t kSoakWindow = 12;  ///< in-flight futures per client
constexpr std::size_t kSoakColdScenes = 24;
constexpr double kSoakHotShare = 0.8;

struct SoakCounters {
    std::atomic<std::uint64_t> verified{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint64_t> resubmits{0};
};

std::size_t pick_soak_mix(wavehpc::testing::SplitMix64& rng) {
    double r = rng.uniform();
    for (std::size_t m = 0; m + 1 < load::kTable1MixCount; ++m) {
        if (r < load::kTable1Mix[m].weight) return m;
        r -= load::kTable1Mix[m].weight;
    }
    return load::kTable1MixCount - 1;
}

/// One soak phase: n_requests spread over the client threads. Returns the
/// phase wall time (start to every future drained).
double run_soak_phase(PyramidService& service,
                      const std::vector<std::shared_ptr<const ImageF>>& hot,
                      const std::vector<std::shared_ptr<const ImageF>>& cold,
                      const std::vector<Pyramid>& scene0_refs,
                      std::size_t n_requests, std::uint64_t phase_seed,
                      SoakCounters& sc) {
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    clients.reserve(kSoakClients);
    for (std::size_t c = 0; c < kSoakClients; ++c) {
        const std::size_t quota =
            n_requests / kSoakClients + (c < n_requests % kSoakClients ? 1 : 0);
        clients.emplace_back([&, c, quota] {
            wavehpc::testing::SplitMix64 rng(
                wavehpc::testing::derive_seed(phase_seed, c));
            struct Pending {
                wavehpc::svc::TransformFuture future;
                bool popular;  ///< scene 0: the bit-identity sample pool
                std::size_t mix;
            };
            std::deque<Pending> window;
            std::uint64_t popular_seen = 0;
            const auto drain_one = [&] {
                Pending p = std::move(window.front());
                window.pop_front();
                const auto reply = p.future.get();
                // Sampled audit: every 32nd scene-0 reply this client sees.
                if (p.popular && (popular_seen++ & 31U) == 0) {
                    sc.verified.fetch_add(1, std::memory_order_relaxed);
                    if (!wavehpc::testing::pyramids_bit_identical(
                            reply.result->pyramid, scene0_refs[p.mix])) {
                        sc.mismatches.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            };
            for (std::size_t i = 0; i < quota; ++i) {
                TransformRequest req;
                bool popular = false;
                if (rng.uniform() < kSoakHotShare) {
                    // Scene 0 keeps half the hot mass, like the sweep.
                    popular = rng.uniform() < 0.5;
                    req.image = popular ? hot[0] : hot[rng.below(hot.size())];
                } else {
                    req.image = cold[rng.below(cold.size())];
                }
                const std::size_t mix = pick_soak_mix(rng);
                req.taps = load::kTable1Mix[mix].taps;
                req.levels = load::kTable1Mix[mix].levels;
                req.backend = Backend::Threads;
                for (;;) {
                    auto sub = service.submit(req);
                    if (sub.accepted) {
                        window.push_back({std::move(sub.future), popular, mix});
                        break;
                    }
                    // Closed-loop backpressure: free a slot, try again.
                    sc.resubmits.fetch_add(1, std::memory_order_relaxed);
                    if (window.empty()) {
                        std::this_thread::yield();
                    } else {
                        drain_one();
                    }
                }
                if (window.size() >= kSoakWindow) drain_one();
            }
            while (!window.empty()) drain_one();
        });
    }
    for (auto& t : clients) t.join();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SoakResult {
    std::size_t requests = 0;
    std::size_t warmup_requests = 0;
    double warm_wall = 0.0;
    double warm_rps = 0.0;
    std::uint64_t warm_completed = 0;
    std::uint64_t warm_arena_misses = 0;    ///< delta across the warm phase
    std::uint64_t warm_heap_fallbacks = 0;  ///< delta across the warm phase
    std::uint64_t warm_batches = 0;
    std::uint64_t warm_batched_requests = 0;
    std::uint64_t verified = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t resubmits = 0;
    wavehpc::svc::MetricsSnapshot end_metrics;
    wavehpc::svc::CacheStats end_cache;
    wavehpc::svc::ArenaStats end_arena;
};

SoakResult run_soak(ThreadPool& pool, ServiceConfig cfg, std::size_t edge,
                    const std::vector<std::shared_ptr<const ImageF>>& hot,
                    const std::vector<Pyramid>& scene0_refs,
                    std::size_t n_requests, std::uint64_t seed) {
    // The cold pool's key universe (scenes x mixes) must overflow the
    // cache for the warm phase to keep computing: the budget holds the
    // whole hot set plus roughly a third of the cold keys, so cold traffic
    // misses (and evicts) at a steady clip.
    const auto cold = load::make_scene_pool(edge, seed + 1000, kSoakColdScenes);
    // A cached pyramid holds as many coefficients as its input image; the
    // budget covers the hot keys plus about two thirds of the cold ones,
    // so cold traffic keeps missing (and evicting) without drowning the
    // hit-dominated mix in cold computes.
    const auto entry_bytes = static_cast<std::uint64_t>(edge) * edge * sizeof(float);
    cfg.cache_bytes = entry_bytes * (hot.size() * load::kTable1MixCount +
                                     2 * kSoakColdScenes);

    PyramidService service(pool, cfg);

    // Provision the pool at startup: pre-grow every size class this
    // workload can touch (nothing a single compute obtains exceeds one
    // image worth of floats) past its steady-state fluctuation, the arena
    // equivalent of pre-faulting a slab heap at boot. Warmup then covers
    // whatever peak demand remains, and the warm phase must allocate
    // nothing at all.
    {
        auto& arena = service.arena();
        const std::size_t top =
            std::min(arena.class_for(edge * edge), cfg.arena.slab_classes - 1);
        std::vector<std::vector<float>> stock;
        for (std::size_t idx = 0; idx <= top; ++idx) {
            // Cached pyramids are donated leases, so in the worst case the
            // whole cache budget sits in ONE class — cover that residency
            // outright, plus a tapering baseline for in-flight compute
            // scratch and client-held leases.
            const std::size_t class_bytes =
                arena.class_floats(idx) * sizeof(float);
            const std::size_t resident =
                (cfg.cache_bytes + class_bytes - 1) / class_bytes;
            const std::size_t count =
                std::max<std::size_t>(64, 1024 >> idx) + resident;
            for (std::size_t i = 0; i < count; ++i) {
                stock.push_back(arena.obtain(arena.class_floats(idx)));
            }
        }
        for (auto& b : stock) arena.recycle(std::move(b));
    }

    SoakCounters sc;
    const std::size_t warmup =
        std::min(n_requests / 2, std::max<std::size_t>(n_requests / 8, 4000));
    (void)run_soak_phase(service, hot, cold, scene0_refs, warmup,
                         wavehpc::testing::derive_seed(seed, 777), sc);
    const auto mid_metrics = service.metrics();
    const auto mid_arena = service.arena_stats();

    SoakResult out;
    out.requests = n_requests;
    out.warmup_requests = warmup;
    out.warm_wall = run_soak_phase(service, hot, cold, scene0_refs,
                                   n_requests - warmup,
                                   wavehpc::testing::derive_seed(seed, 778), sc);
    out.end_metrics = service.metrics();
    out.end_cache = service.cache_stats();
    out.end_arena = service.arena_stats();
    service.shutdown();

    out.warm_completed =
        out.end_metrics.counters.completed - mid_metrics.counters.completed;
    out.warm_rps = static_cast<double>(out.warm_completed) / out.warm_wall;
    out.warm_arena_misses = out.end_arena.misses - mid_arena.misses;
    out.warm_heap_fallbacks =
        out.end_arena.heap_fallbacks - mid_arena.heap_fallbacks;
    out.warm_batches =
        out.end_metrics.counters.batches - mid_metrics.counters.batches;
    out.warm_batched_requests = out.end_metrics.counters.batched_requests -
                                mid_metrics.counters.batched_requests;
    out.verified = sc.verified.load();
    out.mismatches = sc.mismatches.load();
    out.resubmits = sc.resubmits.load();
    return out;
}

void write_json(const std::string& path, std::size_t edge, std::uint64_t seed,
                std::size_t n_requests, double capacity_rps,
                const std::vector<PointResult>& points,
                const SoakResult* soak, double best_done_rps) {
    std::ofstream os(path);
    if (!os) {
        std::cerr << "warning: could not open " << path << " for writing\n";
        return;
    }
    os << "{\n  \"bench\": \"service_load\",\n  \"edge\": " << edge
       << ",\n  \"seed\": " << seed << ",\n  \"requests_per_point\": "
       << n_requests << ",\n  \"cold_capacity_rps\": "
       << capacity_rps << ",\n  \"points\": [\n";
    for (std::size_t k = 0; k < points.size(); ++k) {
        const auto& p = points[k];
        const auto& c = p.metrics.counters;
        os << "    {\"offered_rps\": " << p.offered_rps << ", \"done_rps\": "
           << (static_cast<double>(c.completed) / p.wall_seconds)
           << ", \"completed\": " << c.completed << ", \"rejected\": "
           << c.rejected << ", \"cache_hit_rate\": " << p.cache.hit_rate()
           << ", \"p50_s\": " << p.metrics.total.quantile(0.50)
           << ", \"p95_s\": " << p.metrics.total.quantile(0.95)
           << ", \"p99_s\": " << p.metrics.total.quantile(0.99)
           << ", \"verified\": " << p.verified << ", \"mismatches\": "
           << p.mismatches << "}" << (k + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]";
    if (soak != nullptr) {
        const auto& s = *soak;
        const double lift =
            best_done_rps > 0.0 ? s.warm_rps / best_done_rps : 0.0;
        os << ",\n  \"soak\": {\n    \"requests\": " << s.requests
           << ", \"warmup_requests\": " << s.warmup_requests
           << ", \"clients\": " << kSoakClients << ", \"window\": " << kSoakWindow
           << ",\n    \"cold_scenes\": " << kSoakColdScenes
           << ", \"hot_share\": " << kSoakHotShare
           << ",\n    \"warm_completed\": " << s.warm_completed
           << ", \"warm_wall_s\": " << s.warm_wall
           << ", \"warm_rps\": " << s.warm_rps
           << ", \"lift_vs_best_sweep\": " << lift
           << ",\n    \"warm_batches\": " << s.warm_batches
           << ", \"warm_batched_requests\": " << s.warm_batched_requests
           << ",\n    \"warm_arena_misses\": " << s.warm_arena_misses
           << ", \"warm_heap_fallbacks\": " << s.warm_heap_fallbacks
           << ",\n    \"arena_hits\": " << s.end_arena.hits
           << ", \"arena_misses\": " << s.end_arena.misses
           << ", \"arena_high_water_bytes\": " << s.end_arena.high_water_bytes
           << ",\n    \"cache_hit_rate\": " << s.end_cache.hit_rate()
           << ", \"verified\": " << s.verified
           << ", \"mismatches\": " << s.mismatches
           << ", \"resubmits\": " << s.resubmits << "\n  }";
    }
    os << "\n}\n";
    std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    CommonArgs args;
    std::uint64_t requests_flag = 0;
    std::uint64_t soak_requests_flag = 0;
    bool soak = false;
    std::string json_path;
    const auto extra = [&](std::string_view flag, std::string_view value) {
        if (flag == "--requests") return wavehpc::bench::take_unsigned(value, requests_flag);
        if (flag == "--soak") {
            soak = true;
            return Consume::kFlag;
        }
        if (flag == "--soak-requests") {
            return wavehpc::bench::take_unsigned(value, soak_requests_flag);
        }
        if (flag == "--json" && !value.empty()) {
            json_path = std::string(value);
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
                                                  args.smoke ? 120 : 400));

    std::cout << "=== Pyramid service load sweep ===\n"
              << edge << "x" << edge << " scenes, pool of " << load::kDefaultScenes
              << " (scene 0 takes half the traffic), mix F8/L1 40% / F4/L2 35% "
                 "/ F2/L4 25%, seed "
              << seed << ", " << n_requests << " Poisson arrivals per point\n\n";

    const auto scenes = load::make_scene_pool(edge, seed);
    const auto scene0_refs = load::make_scene0_refs(*scenes[0]);

    ThreadPool pool(std::max(2U, std::thread::hardware_concurrency()));
    ServiceConfig cfg = ServiceConfig::from_env();  // WAVEHPC_SVC_* apply

    // Capacity estimate: mix-weighted cold compute time of the popular
    // scene, measured sequentially, times the service concurrency.
    const double weighted_compute = load::measure_weighted_cold_compute(*scenes[0]);
    const double capacity_rps =
        static_cast<double>(cfg.max_concurrency) / weighted_compute;
    std::cout << "measured cold compute (mix-weighted): "
              << wavehpc::perf::format_latency(weighted_compute)
              << "  -> cold capacity ~" << TableWriter::num(capacity_rps, 1)
              << " rps at concurrency " << cfg.max_concurrency << "\n\n";

    // The cache turns most of that offered load into hits, so sweeping
    // around cold capacity exercises under-load, saturation, and overload.
    const double load_factors[] = {0.5, 2.0, 8.0};
    std::vector<PointResult> points;
    for (std::size_t k = 0; k < 3; ++k) {
        const double rps = capacity_rps * load_factors[k];
        points.push_back(run_point(pool, cfg, scenes, scene0_refs, rps,
                                   n_requests,
                                   wavehpc::testing::derive_seed(seed, k)));
        const auto& p = points.back();
        std::cout << "--- load point " << (k + 1) << ": offered "
                  << TableWriter::num(p.offered_rps, 1) << " rps ("
                  << TableWriter::num(load_factors[k], 1) << "x cold capacity), wall "
                  << TableWriter::num(p.wall_seconds, 2) << " s ---\n";
        wavehpc::svc::print_service_metrics(std::cout, "service", p.metrics,
                                            p.cache);
        std::cout << '\n';
    }

    TableWriter sweep({"offered rps", "done rps", "rejected", "hit rate",
                       "p50", "p95", "p99"});
    for (const auto& p : points) {
        sweep.add_row(
            {TableWriter::num(p.offered_rps, 1),
             TableWriter::num(
                 static_cast<double>(p.metrics.counters.completed) / p.wall_seconds, 1),
             std::to_string(p.metrics.counters.rejected),
             TableWriter::pct(p.cache.hit_rate()),
             wavehpc::perf::format_latency(p.metrics.total.quantile(0.50)),
             wavehpc::perf::format_latency(p.metrics.total.quantile(0.95)),
             wavehpc::perf::format_latency(p.metrics.total.quantile(0.99))});
    }
    sweep.print(std::cout);

    std::uint64_t verified = 0;
    std::uint64_t mismatches = 0;
    bool accounted = true;
    std::size_t replay_hits = 0;
    for (const auto& p : points) {
        verified += p.verified;
        mismatches += p.mismatches;
        const auto& c = p.metrics.counters;
        accounted = accounted && (c.submitted == c.completed + c.rejected);
        replay_hits += p.replay_hit ? 1 : 0;
    }
    std::cout << "\nbit-identity: " << verified << " scene-0 replies checked, "
              << mismatches << " mismatches\n"
              << "drained-key replay: " << replay_hits << " of " << points.size()
              << " points hit the cache with the drained bits\n";

    double best_done_rps = 0.0;
    for (const auto& p : points) {
        best_done_rps = std::max(
            best_done_rps,
            static_cast<double>(p.metrics.counters.completed) / p.wall_seconds);
    }

    SoakResult soak_result;
    bool soak_ok = true;
    if (soak) {
        const auto soak_n = static_cast<std::size_t>(
            wavehpc::bench::or_default<std::uint64_t>(
                soak_requests_flag, args.smoke ? 20000 : 1000000));
        std::cout << "\n=== Sustained soak (closed loop) ===\n"
                  << soak_n << " requests, " << kSoakClients << " clients x window "
                  << kSoakWindow << ", hot " << (kSoakHotShare * 100) << "% over "
                  << load::kDefaultScenes << " scenes / cold over "
                  << kSoakColdScenes << ", seed " << seed << "\n";
        soak_result = run_soak(pool, cfg, edge, scenes, scene0_refs, soak_n, seed);
        const auto& s = soak_result;
        const double lift = best_done_rps > 0.0 ? s.warm_rps / best_done_rps : 0.0;
        std::cout << "warm half: " << s.warm_completed << " completed in "
                  << TableWriter::num(s.warm_wall, 2) << " s -> "
                  << TableWriter::num(s.warm_rps, 1) << " rps ("
                  << TableWriter::num(lift, 2) << "x best sweep done rps)\n"
                  << "batching (warm): " << s.warm_batches << " fused sweeps, "
                  << s.warm_batched_requests << " batched requests\n"
                  << "arena (warm): misses +" << s.warm_arena_misses
                  << ", heap fallbacks +" << s.warm_heap_fallbacks
                  << ", high water "
                  << TableWriter::num(
                         static_cast<double>(s.end_arena.high_water_bytes) /
                             (1024.0 * 1024.0), 1)
                  << " MiB\n"
                  << "cache hit rate " << TableWriter::pct(s.end_cache.hit_rate())
                  << ", resubmits " << s.resubmits << "\n"
                  << "bit-identity: " << s.verified
                  << " sampled scene-0 replies, " << s.mismatches
                  << " mismatches\n";
        wavehpc::svc::print_service_metrics(std::cout, "soak", s.end_metrics,
                                            s.end_cache);
        soak_ok = s.mismatches == 0 && s.verified > 0 &&
                  s.warm_arena_misses == 0 && s.warm_heap_fallbacks == 0 &&
                  s.warm_batches > 0 && s.warm_batched_requests > 0 &&
                  lift >= 1.3;
        std::cout << "soak gates: " << (soak_ok ? "OK" : "FAILED")
                  << " (expects zero warm allocations, fused batches, "
                     "bit-identical samples, >= 1.3x sweep throughput)\n";
    }

    if (!json_path.empty()) {
        write_json(json_path, edge, seed, n_requests, capacity_rps, points,
                   soak ? &soak_result : nullptr, best_done_rps);
    }

    if (args.smoke) {
        const bool ok = accounted && replay_hits == points.size() && verified > 0 &&
                        mismatches == 0 && soak_ok;
        std::cout << "smoke: " << (ok ? "OK" : "FAILED")
                  << " (expects submitted = completed + rejected, a drained key "
                     "replayed as a cache hit at every point, bit-identical "
                     "replies)\n";
        return ok ? 0 : 1;
    }
    return (mismatches == 0 && soak_ok) ? 0 : 1;
}
