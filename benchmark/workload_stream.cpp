// gigapixel_stream: single-threaded tile::stream_decompose of a 16384^2
// SyntheticTileSource (1 GiB of float pixels) — 8 taps, 4 levels, 128x256
// tiles, arena pre-reserved from TilePlan::reservations(). The kernel
// layer through its tile-local twins with no service or shard layer at
// all: the plain single-threaded baseline. A "request" here is one tile
// delivered to the sink; its latency runs from the arrival of the latest
// source band to the tile's delivery.

#include "common.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "svc/arena.hpp"
#include "tile/plan.hpp"
#include "tile/progressive.hpp"

namespace wavebench {

namespace {

using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;

constexpr int kTaps = 8;
constexpr int kLevels = 4;
constexpr std::size_t kCheckEdge = 1024;
constexpr std::size_t kMinPasses = 3;

struct Setup {
    std::size_t edge = 0;
    std::unique_ptr<wavehpc::svc::BufferArena> arena;  ///< reserved from the plan
    Pyramid check_ref;  ///< monolithic core::decompose of the check pass's scene
};

struct PassOut {
    double seconds = 0.0;
    std::uint64_t bytes_in = 0;
    std::uint32_t approx_crc = 0;
    std::vector<double> latency_s;
    TileTotals totals;

    [[nodiscard]] double mib_s() const {
        return seconds > 0.0 ? static_cast<double>(bytes_in) / (1 << 20) / seconds : 0.0;
    }
};

const wavehpc::core::FilterPair& filter() {
    static const auto fp = wavehpc::core::FilterPair::daubechies(kTaps);
    return fp;
}

PassOut run_pass(Setup& st, std::uint64_t source_seed, SpanLog* log, std::uint64_t pass_id) {
    wavehpc::tile::SyntheticTileSource synth(st.edge, st.edge, source_seed);
    TimedSource src(synth);
    MeterSink sink(src, st.edge >> kLevels, st.edge >> kLevels, *st.arena);
    std::uint64_t root = 0;
    const std::int64_t t0 = now_ns();
    if (log != nullptr) {
        root = log->open("stream.pass", t0, 0, pass_id);
        src.trace_into(log, root, pass_id);
        sink.trace_into(log, root, pass_id);
    }
    const auto stats = wavehpc::tile::stream_decompose(
        src, filter(), kLevels, wavehpc::core::BoundaryMode::Periodic,
        wavehpc::core::DwtKernel::Auto, pinned_tile_config(), sink, st.arena.get());
    const std::int64_t t1 = now_ns();
    if (log != nullptr) log->close(root, t1);
    PassOut out;
    out.seconds = static_cast<double>(t1 - t0) * 1e-9;
    out.bytes_in = stats.bytes_in;
    out.approx_crc = sink.approx_crc();
    out.totals.add(out.seconds, src, sink, stats);
    out.latency_s = std::move(sink.latency_s);
    return out;
}

/// Passes until `seconds` have elapsed, at least `min_passes`.
std::vector<PassOut> run_passes(Setup& st, std::uint64_t source_seed, double seconds,
                                std::size_t min_passes, SpanLog* log) {
    std::vector<PassOut> passes;
    const std::int64_t start = now_ns();
    while (passes.size() < min_passes || seconds_since(start) < seconds) {
        passes.push_back(run_pass(st, source_seed, log, passes.size() + 1));
    }
    return passes;
}

std::vector<double> pass_rates(const std::vector<PassOut>& passes) {
    std::vector<double> out;
    for (const auto& p : passes) out.push_back(p.mib_s());
    return out;
}

void gate_crc(Result& r, const std::vector<PassOut>& passes, std::uint32_t reference) {
    std::size_t differ = 0;
    for (const auto& p : passes) differ += p.approx_crc != reference ? 1 : 0;
    r.gate("approx_crc.stable", differ == 0,
           std::to_string(passes.size()) + " passes, " + std::to_string(differ) +
               " with an approximation CRC different from the first");
}

}  // namespace

Result run_stream_workload(const Options& opt, Tracer& tracer) {
    Result r;
    const std::uint64_t source_seed = wavehpc::testing::derive_seed(opt.seed, 1);
    const std::uint64_t check_seed = wavehpc::testing::derive_seed(opt.seed, 2);
    const std::size_t edge = opt.smoke ? 2048 : 16384;
    const auto tile_cfg = pinned_tile_config();

    auto st = timed_setup<Setup>(r, opt, [&] {
        auto s = std::make_unique<Setup>();
        s->edge = edge;
        const auto plan = wavehpc::tile::TilePlan::build(edge, edge, kLevels,
                                                         static_cast<std::size_t>(kTaps),
                                                         tile_cfg);
        s->arena = std::make_unique<wavehpc::svc::BufferArena>(
            pinned_arena_config());
        for (const auto& res : plan.reservations()) s->arena->reserve(res.floats, res.count);
        s->check_ref = wavehpc::core::decompose(
            wavehpc::tile::SyntheticTileSource(kCheckEdge, kCheckEdge, check_seed).materialize(),
            filter(), kLevels, wavehpc::core::BoundaryMode::Periodic,
            wavehpc::core::resolve_dwt_kernel(wavehpc::core::DwtKernel::Auto, filter()));
        return s;
    });

    // Untimed check pass: the tiled pyramid must equal the monolithic one.
    {
        wavehpc::tile::SyntheticTileSource check(kCheckEdge, kCheckEdge, check_seed);
        wavehpc::core::HeapBufferSource heap;
        wavehpc::tile::PyramidAssembler assembled(kCheckEdge, kCheckEdge, kLevels, heap);
        (void)wavehpc::tile::stream_decompose(check, filter(), kLevels,
                                              wavehpc::core::BoundaryMode::Periodic,
                                              wavehpc::core::DwtKernel::Auto, tile_cfg,
                                              assembled, &heap);
        r.gate("check_pass.bit_identity", pyramids_identical(assembled.take(), st->check_ref),
               "1024x1024 tiled pyramid vs monolithic core::decompose");
    }

    const auto arena0 = st->arena->stats();
    if (!opt.trace) {
        const auto passes = run_passes(*st, source_seed, opt.seconds, kMinPasses, nullptr);
        gate_crc(r, passes, passes.front().approx_crc);
        std::vector<double> latency;
        double seconds = 0.0;
        for (const auto& p : passes) {
            latency.insert(latency.end(), p.latency_s.begin(), p.latency_s.end());
            seconds += p.seconds;
        }
        r.attempted = latency.size();
        r.failed = 0;
        r.set("throughput_rps", static_cast<double>(latency.size()) / seconds, "1/s");
        set_percentile(r, "latency_p50_ms", latency, 0.50, 1e3, "ms");
        set_percentile(r, "latency_p99_ms", latency, 0.99, 1e3, "ms");
        r.set("stream_mib_s", median(pass_rates(passes)), "MiB/s");
        r.counters["measured.passes"] = static_cast<double>(passes.size());
        r.counters["measured.wall_s"] = seconds;
        r.counters["tile.arena_misses"] =
            static_cast<double>(st->arena->stats().misses - arena0.misses);
        r.set("peak_rss_mib", peak_rss_mib(), "MiB");
        return r;
    }

    const auto plain = run_passes(*st, source_seed, opt.seconds / 2, 1, nullptr);
    const auto a0 = st->arena->stats();
    const auto traced = run_passes(*st, source_seed, opt.seconds / 2, 1, &tracer.log(0));
    const auto a1 = st->arena->stats();
    gate_crc(r, plain, plain.front().approx_crc);
    gate_crc(r, traced, plain.front().approx_crc);
    TileTotals totals;
    for (const auto& p : traced) {
        totals.merge(p.totals);
        r.attempted += p.latency_s.size();
    }
    for (const auto& p : plain) r.attempted += p.latency_s.size();
    set_tile_layer_metrics(r, totals, "live");
    r.counters["tile.arena_misses"] = static_cast<double>(a1.misses - arena0.misses);
    const double misses = static_cast<double>(a1.misses - a0.misses);
    const double checkouts = misses + static_cast<double>(a1.hits - a0.hits);
    r.set("arena.warm_miss_ratio", checkouts > 0.0 ? misses / checkouts : 0.0, "ratio");
    r.set("arena.high_water_mib", static_cast<double>(a1.high_water_bytes) / (1 << 20), "MiB");
    set_trace_overhead(r, median(pass_rates(plain)), median(pass_rates(traced)));

    // Layer replay inputs: 256x256 scenes from the same generator and
    // seed, with the Table-1 mix the service workloads draw.
    std::vector<ReplayInput> inputs;
    const auto scenes = make_scenes(256, wavehpc::testing::derive_seed(opt.seed, 5), 64);
    wavehpc::testing::SplitMix64 rng(wavehpc::testing::derive_seed(opt.seed, 6));
    for (std::uint64_t i = 0; i < 2000; ++i) {
        inputs.push_back(ReplayInput{scenes[i % scenes.size()], pick_mix(rng), i + 1});
    }
    wavehpc::runtime::ThreadPool pool(cpu_count());
    LiveLayers live;
    live.tile = true;
    replay_layers(inputs, live, pool, opt, tracer, r);
    r.set("trace.unattributed_share", unattributed_share(tracer.all(), "stream.pass"),
          "ratio");
    return r;
}

}  // namespace wavebench
