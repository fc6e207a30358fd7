// Streaming tiled-DWT bench (ISSUE 9): ingest a synthetic 16k x 16k scene
// (1 GiB of float pixels) row-band by row-band through the constant-memory
// tile driver and report ingest bytes/s, peak driver-resident bytes
// against the plan bound, the zero-warm-allocation arena contract, and
// the progressive split — time-to-first-band (approximation sealed +
// delivered on a simulated 8 MiB/s link) vs
// time-to-full-pyramid. The delivery sink assembles ONLY the
// approximation plane and prices detail tiles as they fly by, so the
// bench itself stays height-independent like the driver.
//
// The stream's source and sink are timed call by call. bytes_per_sec is
// the ingested bytes over the stream's seconds less those inside the sink:
// source plus driver, the scope of wavebench's stream_mib_s, whose sink
// recycles tiles unread, while this bench's sink prices every detail band
// (band_entropy_bits), about 60 % of the pass. driver_ns_per_px is the
// driver alone: the seconds less those inside read_rows and inside the
// sink, per input pixel (the definition wavebench's tile.driver_ns_px
// uses). seconds and sink_seconds stay the whole pass and the sink.
//
// --smoke: a 512 x 512 scene plus the acceptance gates as hard asserts:
//   * full-scene tiled pyramid bit-identical to the monolithic
//     core::decompose for every boundary mode;
//   * interior coefficients bit-identical to a monolithic decompose of an
//     overlapping offset sub-window (seam independence);
//   * peak resident bytes identical across a 4x image-height change and
//     within TilePlan::resident_bytes_bound(), and on the 512 x 512 scene
//     equal to it;
//   * zero arena misses / heap fallbacks after TilePlan::reservations();
//   * time-to-first-band strictly before time-to-full-pyramid.
//
// Extra flags: --json PATH (full mode defaults to BENCH_tiled.json).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common_args.hpp"
#include "core/compress.hpp"
#include "core/dwt.hpp"
#include "core/synthetic.hpp"
#include "perf/report.hpp"
#include "svc/arena.hpp"
#include "testing/invariants.hpp"
#include "tile/plan.hpp"
#include "tile/progressive.hpp"
#include "tile/source.hpp"
#include "tile/tiled_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::tile::TileConfig;
using wavehpc::tile::TilePlan;

int g_failures = 0;

/// Bytes per second of the simulated delivery link.
constexpr double kLinkBytesPerSecond = 8.0 * (1 << 20);

void check(bool ok, const std::string& what) {
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++g_failures;
    }
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times every read_rows call of the source it wraps.
class TimedSource final : public wavehpc::tile::TileSource {
public:
    explicit TimedSource(wavehpc::tile::TileSource& inner) : inner_(inner) {}

    [[nodiscard]] std::size_t rows() const override { return inner_.rows(); }
    [[nodiscard]] std::size_t cols() const override { return inner_.cols(); }
    void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override {
        const auto t0 = Clock::now();
        inner_.read_rows(y0, n, dst);
        seconds += seconds_since(t0);
    }

    double seconds = 0.0;  ///< inside read_rows

private:
    wavehpc::tile::TileSource& inner_;
};

/// Assembles the approximation plane and prices every band on the fly
/// (first-order entropy at quant step 1 + a 64-byte frame per tile), so a
/// gigapixel run can report delivery times without holding its pyramid.
/// Times its own calls.
class DeliveryMeter final : public wavehpc::tile::TileSink {
public:
    DeliveryMeter(std::size_t rows, std::size_t cols, int levels,
                  wavehpc::core::FloatBufferSource& buffers)
        : buffers_(buffers), approx_(rows >> levels, cols >> levels) {}

    void on_detail(const wavehpc::tile::TileCoord& coord,
                   wavehpc::core::DetailBands&& bands) override {
        (void)coord;
        const auto t0 = Clock::now();
        for (ImageF* band : {&bands.lh, &bands.hl, &bands.hh}) {
            detail_bytes_ += 64.0 + static_cast<double>(band->size()) *
                                        wavehpc::core::band_entropy_bits(*band, 1.0F) /
                                        8.0;
            buffers_.recycle(band->release_data());
        }
        seconds += seconds_since(t0);
    }

    void on_approx(const wavehpc::tile::TileCoord& coord, ImageF&& ll) override {
        const auto t0 = Clock::now();
        approx_.paste(ll, coord.row0, coord.col0);
        buffers_.recycle(ll.release_data());
        seconds += seconds_since(t0);
    }

    double seconds = 0.0;  ///< inside on_detail and on_approx

    [[nodiscard]] double approx_coded_bytes() const {
        return 64.0 + static_cast<double>(approx_.size()) *
                          wavehpc::core::band_entropy_bits(approx_, 1.0F) / 8.0;
    }
    [[nodiscard]] double detail_coded_bytes() const { return detail_bytes_; }

private:
    wavehpc::core::FloatBufferSource& buffers_;
    ImageF approx_;
    double detail_bytes_ = 0.0;
};

struct RunReport {
    std::size_t rows = 0, cols = 0;
    int levels = 0, taps = 0;
    TileConfig cfg;
    wavehpc::tile::TileStreamStats stats;
    std::uint64_t resident_bound = 0;
    double bytes_per_sec = 0.0;  ///< bytes_in over the seconds outside the sink
    double time_to_first_band = 0.0;
    double time_to_full = 0.0;
    wavehpc::svc::ArenaStats arena;
    std::vector<std::size_t> pooled_per_class;
    double source_seconds = 0.0;  ///< inside the source's read_rows
    double sink_seconds = 0.0;    ///< inside the delivery sink
    /// The stream's seconds less its source's and sink's, per input pixel,
    /// in ns: the driver alone.
    double driver_ns_per_px = 0.0;
};

RunReport run_stream(std::size_t rows, std::size_t cols, int levels, int taps,
                     std::uint64_t seed, const TileConfig& cfg) {
    RunReport rep;
    rep.rows = rows;
    rep.cols = cols;
    rep.levels = levels;
    rep.taps = taps;
    rep.cfg = cfg;
    const TilePlan plan =
        TilePlan::build(rows, cols, levels, static_cast<std::size_t>(taps), cfg);
    rep.resident_bound = plan.resident_bytes_bound();

    wavehpc::svc::BufferArena arena;
    for (const auto& r : plan.reservations()) arena.reserve(r.floats, r.count);

    wavehpc::tile::SyntheticTileSource synth(rows, cols, seed);
    TimedSource src(synth);
    DeliveryMeter sink(rows, cols, levels, arena);
    const auto fp = FilterPair::daubechies(taps);
    rep.stats = wavehpc::tile::stream_decompose(
        src, fp, levels, BoundaryMode::Periodic, DwtKernel::Convolve, cfg, sink,
        &arena);
    rep.source_seconds = src.seconds;
    rep.sink_seconds = sink.seconds;
    rep.driver_ns_per_px =
        std::max(0.0, rep.stats.seconds - src.seconds - sink.seconds) * 1e9 /
        (static_cast<double>(rows) * static_cast<double>(cols));

    const double source_and_driver = rep.stats.seconds - sink.seconds;
    rep.bytes_per_sec = source_and_driver > 0.0
                            ? static_cast<double>(rep.stats.bytes_in) / source_and_driver
                            : 0.0;
    // The progressive split: the link opens when the approximation seals.
    rep.time_to_first_band =
        rep.stats.approx_seal_seconds + sink.approx_coded_bytes() / kLinkBytesPerSecond;
    rep.time_to_full =
        rep.stats.seconds +
        (sink.approx_coded_bytes() + sink.detail_coded_bytes()) / kLinkBytesPerSecond;
    rep.arena = arena.stats();
    rep.pooled_per_class = arena.pooled_per_class();
    return rep;
}

void print_report(const RunReport& r) {
    wavehpc::perf::TableWriter t({"scene", "tile", "levels", "taps", "MiB/s",
                                  "t_first_band_s", "t_full_s", "peak_MiB",
                                  "bound_MiB"});
    t.add_row({std::to_string(r.rows) + "x" + std::to_string(r.cols),
               std::to_string(r.cfg.tile_rows) + "x" + std::to_string(r.cfg.tile_cols),
               std::to_string(r.levels), std::to_string(r.taps),
               wavehpc::perf::TableWriter::num(r.bytes_per_sec / (1 << 20), 1),
               wavehpc::perf::TableWriter::num(r.time_to_first_band, 4),
               wavehpc::perf::TableWriter::num(r.time_to_full, 4),
               wavehpc::perf::TableWriter::num(
                   static_cast<double>(r.stats.peak_resident_bytes) / (1 << 20), 2),
               wavehpc::perf::TableWriter::num(
                   static_cast<double>(r.resident_bound) / (1 << 20), 2)});
    t.print(std::cout);
    std::cout << "arena: reserved_slabs=" << r.arena.reserved_slabs
              << " hits=" << r.arena.hits << " misses=" << r.arena.misses
              << " heap_fallbacks=" << r.arena.heap_fallbacks << " pooled=[";
    for (std::size_t i = 0; i < r.pooled_per_class.size(); ++i) {
        std::cout << (i > 0 ? " " : "") << r.pooled_per_class[i];
    }
    std::cout << "]\n";
    std::cout << "driver alone: " << r.driver_ns_per_px << " ns/px (stream "
              << r.stats.seconds << " s less source " << r.source_seconds << " s and sink "
              << r.sink_seconds << " s)\n";
}

void write_json(const std::string& path, const RunReport& r) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"bench\": \"tiled_stream\",\n"
        << "  \"rows\": " << r.rows << ",\n"
        << "  \"cols\": " << r.cols << ",\n"
        << "  \"levels\": " << r.levels << ",\n"
        << "  \"taps\": " << r.taps << ",\n"
        << "  \"tile_rows\": " << r.cfg.tile_rows << ",\n"
        << "  \"tile_cols\": " << r.cfg.tile_cols << ",\n"
        << "  \"bytes_in\": " << r.stats.bytes_in << ",\n"
        << "  \"seconds\": " << r.stats.seconds << ",\n"
        << "  \"bytes_per_sec\": " << r.bytes_per_sec << ",\n"
        << "  \"source_seconds\": " << r.source_seconds << ",\n"
        << "  \"sink_seconds\": " << r.sink_seconds << ",\n"
        << "  \"driver_ns_per_px\": " << r.driver_ns_per_px << ",\n"
        << "  \"preview_bytes_per_sec\": " << kLinkBytesPerSecond << ",\n"
        << "  \"approx_seal_seconds\": " << r.stats.approx_seal_seconds << ",\n"
        << "  \"time_to_first_band_seconds\": " << r.time_to_first_band << ",\n"
        << "  \"time_to_full_seconds\": " << r.time_to_full << ",\n"
        << "  \"peak_resident_bytes\": " << r.stats.peak_resident_bytes << ",\n"
        << "  \"resident_bound_bytes\": " << r.resident_bound << ",\n"
        << "  \"arena\": {\"reserved_slabs\": " << r.arena.reserved_slabs
        << ", \"hits\": " << r.arena.hits << ", \"misses\": " << r.arena.misses
        << ", \"heap_fallbacks\": " << r.arena.heap_fallbacks << "}\n"
        << "}\n";
    std::cout << "wrote " << path << "\n";
}

// ---------------------------------------------------------------------------
// Smoke gates
// ---------------------------------------------------------------------------

void smoke_bit_identity() {
    const ImageF img = wavehpc::core::landsat_tm_like(96, 80, 11);
    const auto fp = FilterPair::daubechies(8);
    TileConfig cfg;
    cfg.tile_rows = 16;
    cfg.tile_cols = 24;
    for (const BoundaryMode mode :
         {BoundaryMode::Periodic, BoundaryMode::Symmetric, BoundaryMode::ZeroPad}) {
        const Pyramid want = wavehpc::core::decompose(img, fp, 3, mode);
        const Pyramid got = wavehpc::tile::tiled_decompose(img, fp, 3, mode, cfg, nullptr);
        check(wavehpc::testing::pyramids_bit_identical(got, want),
              "tiled pyramid != monolithic decompose (mode " +
                  std::to_string(static_cast<int>(mode)) + ")");
    }
}

/// Interior coefficients of the full-scene tiled pyramid must equal a
/// monolithic decompose of an overlapping offset sub-window wherever both
/// windows' coefficient supports stay interior — seam independence in its
/// strongest form.
void smoke_interior_window() {
    const std::size_t off = 64, win = 192;  // both divisible by 2^levels
    const int levels = 3, taps = 8;
    const ImageF img = wavehpc::core::landsat_tm_like(384, 384, 5);
    const auto fp = FilterPair::daubechies(taps);
    TileConfig cfg;
    cfg.tile_rows = 40;
    cfg.tile_cols = 48;
    const Pyramid tiled = wavehpc::tile::tiled_decompose(
        img, fp, levels, BoundaryMode::Symmetric, cfg, nullptr);
    const Pyramid window = wavehpc::core::decompose(
        img.sub(off, off, win, win), fp, levels, BoundaryMode::ZeroPad);
    std::size_t compared = 0;
    for (int l = 0; l < levels; ++l) {
        // Band coords: window band row k == full band row k + off>>(l+1).
        // Coefficient supports grow level by level; 2*taps output
        // coefficients per edge is a conservative interior margin.
        const std::size_t shift = off >> (l + 1);
        const std::size_t n = win >> (l + 1);
        const std::size_t margin = 2 * static_cast<std::size_t>(taps) * (l + 1);
        if (2 * margin >= n) continue;
        const auto& wb = window.levels[static_cast<std::size_t>(l)];
        const auto& tb = tiled.levels[static_cast<std::size_t>(l)];
        for (std::size_t r = margin; r < n - margin; ++r) {
            for (std::size_t c = margin; c < n - margin; ++c) {
                check(wb.lh(r, c) == tb.lh(r + shift, c + shift) &&
                          wb.hl(r, c) == tb.hl(r + shift, c + shift) &&
                          wb.hh(r, c) == tb.hh(r + shift, c + shift),
                      "interior window mismatch at level " + std::to_string(l));
                ++compared;
                if (g_failures > 0) return;
            }
        }
    }
    check(compared > 1000, "interior window check compared too few coefficients");
}

void smoke_height_invariance(const TileConfig& cfg) {
    const auto run = [&](std::size_t rows) {
        wavehpc::tile::SyntheticTileSource src(rows, 512, 3);
        wavehpc::core::HeapBufferSource buffers;
        wavehpc::tile::DiscardSink sink(buffers);
        const auto fp = FilterPair::daubechies(8);
        return wavehpc::tile::stream_decompose(src, fp, 3, BoundaryMode::Periodic,
                                               DwtKernel::Convolve, cfg, sink,
                                               &buffers);
    };
    // Once every level's plane is taps rows tall its ring is at its cap,
    // and each level holds one band of tiles whatever the height, so peaks
    // must be byte-identical from there on up.
    const auto short_run = run(2048);
    const auto tall_run = run(8192);
    check(short_run.peak_resident_bytes == tall_run.peak_resident_bytes,
          "peak resident bytes depend on image height");
    const TilePlan plan = TilePlan::build(8192, 512, 3, 8, cfg);
    check(tall_run.peak_resident_bytes <= plan.resident_bytes_bound(),
          "peak resident bytes exceed the plan bound");
}

}  // namespace

int main(int argc, char** argv) {
    wavehpc::bench::CommonArgs args;
    std::string json_path;
    const auto extra = [&](std::string_view flag,
                           std::string_view value) -> wavehpc::bench::Consume {
        if (flag == "--json" && !value.empty()) {
            json_path = std::string(value);
            return wavehpc::bench::Consume::kFlagAndValue;
        }
        return wavehpc::bench::Consume::kNo;
    };
    if (!wavehpc::bench::parse_bench_args(argc, argv, args, extra)) return 2;

    const TileConfig cfg = TileConfig::from_env();
    const std::uint64_t seed = args.seed != 0 ? args.seed : 1996;

    if (args.smoke) {
        smoke_bit_identity();
        smoke_interior_window();
        smoke_height_invariance(cfg);
        const std::size_t edge = args.size != 0 ? args.size : 512;
        const RunReport rep = run_stream(edge, edge, 3, 8, seed, cfg);
        print_report(rep);
        check(rep.arena.misses == 0, "arena misses after reservation replay");
        check(rep.arena.heap_fallbacks == 0, "arena heap fallbacks in the stream");
        check(rep.stats.peak_resident_bytes == rep.resident_bound,
              "peak resident bytes differ from the plan bound");
        check(rep.time_to_first_band < rep.time_to_full,
              "time-to-first-band not before time-to-full-pyramid");
        check(rep.stats.approx_seal_seconds <= rep.stats.seconds,
              "approximation sealed after the stream finished");
        if (!json_path.empty()) write_json(json_path, rep);
        if (g_failures == 0) std::cout << "SMOKE OK\n";
        return g_failures == 0 ? 0 : 1;
    }

    // Full mode: the gigapixel-class scene of the ISSUE (16k x 16k floats
    // = 1 GiB ingested, held in ~tens of MiB of driver-resident state).
    const std::size_t edge = args.size != 0 ? args.size : 16384;
    const RunReport rep = run_stream(edge, edge, 4, 8, seed, cfg);
    print_report(rep);
    check(rep.arena.misses == 0, "arena misses after reservation replay");
    check(rep.time_to_first_band < rep.time_to_full,
          "time-to-first-band not before time-to-full-pyramid");
    if (json_path.empty()) json_path = "BENCH_tiled.json";
    write_json(json_path, rep);
    return g_failures == 0 ? 0 : 1;
}
