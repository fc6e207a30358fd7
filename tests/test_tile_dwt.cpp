// Tiled gigapixel DWT pipeline (ISSUE 9): the tier-1 contract is BIT
// identity — every coefficient of the tiled/streamed pyramid, interior
// and edge, equals the monolithic core::decompose output exactly, for
// every tile size x taps x levels x boundary mode combination —
// plus the constant-memory claims (zero warm allocations after
// TilePlan::reservations(), height-independent peak residency), the
// windowed PGM reader, and the service's progressive/preview path.

#include "tile/tiled_dwt.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pgm_io.hpp"
#include "core/synthetic.hpp"
#include "nan_arena.hpp"
#include "svc/arena.hpp"
#include "svc/service.hpp"
#include "tile/plan.hpp"
#include "tile/progressive.hpp"
#include "tile/source.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::tile::TileConfig;
using wavehpc::tile::TilePlan;

constexpr BoundaryMode kModes[] = {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                                   BoundaryMode::ZeroPad};

[[nodiscard]] ImageF scene(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    return wavehpc::core::landsat_tm_like(rows, cols, seed);
}

void expect_bands_eq(const Pyramid& got, const Pyramid& want, const std::string& tag) {
    ASSERT_EQ(got.depth(), want.depth()) << tag;
    for (std::size_t l = 0; l < want.depth(); ++l) {
        EXPECT_EQ(got.levels[l].lh, want.levels[l].lh) << tag << " lh level " << l;
        EXPECT_EQ(got.levels[l].hl, want.levels[l].hl) << tag << " hl level " << l;
        EXPECT_EQ(got.levels[l].hh, want.levels[l].hh) << tag << " hh level " << l;
    }
    EXPECT_EQ(got.approx, want.approx) << tag << " approx";
}

// ---------------------------------------------------------------------------
// Plan arithmetic
// ---------------------------------------------------------------------------

TEST(TilePlan, GeometryAndRingCaps) {
    TileConfig cfg;
    cfg.tile_rows = 64;
    cfg.tile_cols = 128;
    const TilePlan plan = TilePlan::build(256, 512, 3, 8, cfg);
    ASSERT_EQ(plan.level.size(), 3U);
    EXPECT_EQ(plan.halo, 7U);
    EXPECT_EQ(plan.level[0].in_rows, 256U);
    EXPECT_EQ(plan.level[0].out_cols, 256U);
    EXPECT_EQ(plan.level[0].tiles_down, 2U);   // 128 output rows / 64
    EXPECT_EQ(plan.level[0].tiles_across, 2U); // 256 output cols / 128
    // Ring capped at 2*tile_rows + taps, never past the plane height.
    EXPECT_EQ(plan.level[0].ring_rows, std::min<std::size_t>(256, 2 * 64 + 8));
    EXPECT_EQ(plan.level[2].ring_rows,
              std::min<std::size_t>(64, 2 * std::min<std::size_t>(64, 32) + 8));
    EXPECT_EQ(plan.level[0].head_rows, 6U);  // taps - 2
    EXPECT_FALSE(plan.reservations().empty());
    EXPECT_GT(plan.resident_bytes_bound(), 0U);
}

TEST(TilePlan, BoundIsIndependentOfImageHeight) {
    TileConfig cfg;
    cfg.tile_rows = 32;
    cfg.tile_cols = 64;
    const TilePlan a = TilePlan::build(512, 256, 2, 4, cfg);
    const TilePlan b = TilePlan::build(4096, 256, 2, 4, cfg);
    EXPECT_EQ(a.resident_bytes_bound(), b.resident_bytes_bound());
}

TEST(TilePlan, RejectsBadRequests) {
    const TileConfig cfg;
    EXPECT_THROW((void)TilePlan::build(100, 64, 3, 4, cfg), std::invalid_argument);
    EXPECT_THROW((void)TilePlan::build(64, 64, 2, 5, cfg), std::invalid_argument);
    EXPECT_THROW((void)TilePlan::build(64, 64, 2, 0, cfg), std::invalid_argument);
    TileConfig zero = cfg;
    zero.tile_rows = 0;
    EXPECT_THROW((void)TilePlan::build(64, 64, 1, 4, zero), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kernel-layer range/tile entry points
// ---------------------------------------------------------------------------

TEST(AnalyzeRange, SegmentsMatchFullSignalBitExact) {
    // Uneven segmentations incl. a 1-wide and a trailing short segment. On
    // the 600-pixel signal the cuts miss the 16-output register blocks of
    // the Convolve row pass, so segments mix whole blocks, remainders and
    // the right edge.
    const std::pair<std::size_t, std::vector<std::size_t>> signals[] = {
        {96, {0, 1, 17, 40, 48}},
        {600, {0, 1, 17, 40, 48, 255, 256, 273, 300}},
    };
    for (const auto& [length, cuts] : signals) {
        const ImageF img = scene(1, length, 7);
        const std::span<const float> x = img.row(0);
        const std::size_t half = length / 2;
        for (const int taps : {2, 4, 8}) {
            const auto fp = FilterPair::daubechies(taps);
            for (const BoundaryMode mode : kModes) {
                std::vector<float> lo(half), hi(half), slo(half), shi(half);
                wavehpc::core::analyze_1d_range(x, fp, lo, hi, mode, 0, half);
                for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
                    const std::size_t k0 = cuts[s], k1 = cuts[s + 1];
                    wavehpc::core::analyze_1d_range(
                        x, fp, std::span<float>(slo).subspan(k0, k1 - k0),
                        std::span<float>(shi).subspan(k0, k1 - k0), mode, k0, k1);
                }
                EXPECT_EQ(slo, lo) << "length " << length << " taps " << taps;
                EXPECT_EQ(shi, hi) << "length " << length << " taps " << taps;
            }
        }
    }
}

TEST(AnalyzeColsTile, WritesLLAtItsColumnOffsetOnly) {
    // A column segment's LL lands at ll_col0 of a wider destination (the
    // tile driver's cascade band) with the whole-plane bits; the rest of
    // the destination is not touched, and one too short or too narrow is
    // rejected.
    const ImageF img = scene(16, 48, 3);
    const std::size_t c0 = 5, width = 11;  // crosses a column block edge
    for (const int taps : {4, 2}) {
        const auto fp = FilterPair::daubechies(taps);
        ImageF lo(16, 24), hi(16, 24);
        wavehpc::core::analyze_rows_range(img, fp, lo, hi, BoundaryMode::Periodic,
                                          DwtKernel::Convolve, 0, 16);
        ImageF ll(8, 24), lh(8, 24), hl(8, 24), hh(8, 24);
        wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh,
                                          BoundaryMode::Periodic, DwtKernel::Convolve,
                                          0, 8);
        const wavehpc::core::RowAccessor lo_at = [&](std::size_t r) {
            return lo.row(r).data() + c0;
        };
        const wavehpc::core::RowAccessor hi_at = [&](std::size_t r) {
            return hi.row(r).data() + c0;
        };
        const float nan = std::numeric_limits<float>::quiet_NaN();
        ImageF band(8, 24, nan), tlh(8, width), thl(8, width), thh(8, width);
        wavehpc::core::analyze_cols_tile(lo_at, hi_at, 16, width, fp, band, tlh, thl,
                                         thh, BoundaryMode::Periodic, 0, 8, c0);
        const std::string tag = "taps " + std::to_string(taps);
        EXPECT_EQ(band.sub(0, c0, 8, width), ll.sub(0, c0, 8, width)) << tag;
        EXPECT_EQ(tlh, lh.sub(0, c0, 8, width)) << tag;
        for (std::size_t r = 0; r < 8; ++r) {
            for (std::size_t c = 0; c < 24; ++c) {
                if (c < c0 || c >= c0 + width) {
                    EXPECT_TRUE(std::isnan(band(r, c))) << tag;
                }
            }
        }
        for (ImageF bad : {ImageF(7, 24), ImageF(8, c0 + width - 1)}) {
            EXPECT_THROW(wavehpc::core::analyze_cols_tile(
                             lo_at, hi_at, 16, width, fp, bad, tlh, thl, thh,
                             BoundaryMode::Periodic, 0, 8, c0),
                         std::invalid_argument)
                << tag;
        }
    }
}

// ---------------------------------------------------------------------------
// Tentpole: tiled pyramid == monolithic pyramid, bit for bit
// ---------------------------------------------------------------------------

TEST(TiledBitIdentity, FullMatrixAgainstMonolithicDecompose) {
    // 96x80 is non-divisible by every tile size below, so the grid has
    // short edge tiles in both axes; tile_cols 64 leaves level-3 planes
    // (10 output cols) a single tile wide. Each stream runs twice: through
    // private heap buffers, and through an arena whose slabs start as NaN,
    // so a driver buffer read before it is written fails the comparison.
    const ImageF img = scene(96, 80, 11);
    const TileConfig tiles[] = {{16, 16}, {8, 24}, {64, 64}, {1, 8}};
    wavehpc::svc::BufferArena arena;
    for (const int taps : {2, 4, 8}) {
        const auto fp = FilterPair::daubechies(taps);
        for (const int levels : {1, 3}) {
            for (const BoundaryMode mode : kModes) {
                const Pyramid want = wavehpc::core::decompose(img, fp, levels, mode);
                for (const TileConfig& cfg : tiles) {
                    const std::string tag =
                        "taps=" + std::to_string(taps) +
                        " levels=" + std::to_string(levels) +
                        " mode=" + std::to_string(static_cast<int>(mode)) +
                        " tile=" + std::to_string(cfg.tile_rows) + "x" +
                        std::to_string(cfg.tile_cols);
                    expect_bands_eq(
                        wavehpc::tile::tiled_decompose(img, fp, levels, mode, cfg, nullptr),
                        want, tag);
                    // No stream holds more than 32 buffers at once.
                    wavehpc::testing::prime_with_nan(arena, img.size(), 32);
                    expect_bands_eq(
                        wavehpc::tile::tiled_decompose(img, fp, levels, mode, cfg, &arena),
                        want, tag + " arena");
                }
            }
        }
    }
}

TEST(TiledBitIdentity, StreamedSyntheticSceneMatchesMaterialized) {
    wavehpc::tile::SyntheticTileSource src(128, 192, 42);
    const ImageF img = src.materialize();
    const auto fp = FilterPair::daubechies(8);
    TileConfig cfg;
    cfg.tile_rows = 24;
    cfg.tile_cols = 56;
    const Pyramid want = wavehpc::core::decompose(img, fp, 2, BoundaryMode::Periodic);
    wavehpc::core::HeapBufferSource buffers;
    wavehpc::tile::PyramidAssembler sink(128, 192, 2, buffers);
    const auto stats = wavehpc::tile::stream_decompose(
        src, fp, 2, BoundaryMode::Periodic, DwtKernel::Convolve, cfg, sink, &buffers);
    expect_bands_eq(sink.pyramid(), want, "streamed");
    EXPECT_EQ(stats.bytes_in, 128U * 192U * 4U);
    EXPECT_GE(stats.seconds, stats.approx_seal_seconds);
}

TEST(TiledBitIdentity, StreamThatNamesAutoMatchesMaterialized) {
    // Convolve is the one kernel, so a stream that names Auto emits the
    // monolithic decompose's bits too.
    wavehpc::tile::SyntheticTileSource src(64, 96, 7);
    const ImageF img = src.materialize();
    const auto fp = FilterPair::daubechies(4);
    TileConfig cfg;
    cfg.tile_rows = 16;
    cfg.tile_cols = 40;
    const Pyramid want = wavehpc::core::decompose(img, fp, 2, BoundaryMode::ZeroPad);
    wavehpc::core::HeapBufferSource buffers;
    wavehpc::tile::PyramidAssembler sink(64, 96, 2, buffers);
    (void)wavehpc::tile::stream_decompose(src, fp, 2, BoundaryMode::ZeroPad,
                                          DwtKernel::Auto, cfg, sink, &buffers);
    expect_bands_eq(sink.pyramid(), want, "auto");
}

// ---------------------------------------------------------------------------
// Constant-memory claims
// ---------------------------------------------------------------------------

TEST(TiledStreaming, PeakResidencyIsHeightIndependentAndBounded) {
    const auto fp = FilterPair::daubechies(4);
    TileConfig cfg;
    cfg.tile_rows = 32;
    cfg.tile_cols = 64;
    const auto run = [&](std::size_t rows) {
        wavehpc::tile::SyntheticTileSource src(rows, 256, 3);
        wavehpc::core::HeapBufferSource buffers;
        wavehpc::tile::DiscardSink sink(buffers);
        return wavehpc::tile::stream_decompose(
            src, fp, 2, BoundaryMode::Symmetric, DwtKernel::Convolve, cfg, sink,
            &buffers);
    };
    const auto small = run(512);
    const auto tall = run(2048);
    EXPECT_EQ(small.peak_resident_bytes, tall.peak_resident_bytes);
    const TilePlan plan = TilePlan::build(2048, 256, 2, 4, cfg);
    EXPECT_LE(tall.peak_resident_bytes, plan.resident_bytes_bound());
}

TEST(TiledStreaming, ReservedArenaRunsWithZeroWarmAllocations) {
    const auto fp = FilterPair::daubechies(8);
    TileConfig cfg;
    cfg.tile_rows = 32;
    cfg.tile_cols = 64;
    const TilePlan plan = TilePlan::build(256, 320, 3, 8, cfg);
    wavehpc::svc::BufferArena arena;
    for (const auto& r : plan.reservations()) arena.reserve(r.floats, r.count);
    const auto before = arena.stats();
    EXPECT_EQ(before.misses, 0U);
    EXPECT_GT(before.reserved_slabs, 0U);

    wavehpc::tile::SyntheticTileSource src(256, 320, 9);
    wavehpc::tile::DiscardSink sink(arena);
    (void)wavehpc::tile::stream_decompose(src, fp, 3, BoundaryMode::Periodic,
                                          DwtKernel::Convolve, cfg, sink, &arena);
    const auto after = arena.stats();
    EXPECT_EQ(after.misses, 0U) << "stream allocated outside the reservation set";
    EXPECT_EQ(after.heap_fallbacks, 0U);
    EXPECT_GT(after.hits, 0U);
}

TEST(TiledStreaming, AFailedStreamReturnsEveryDriverBuffer) {
    // A stream that ends in an exception (a truncated PGM, a sink that
    // gives up) hands every buffer the driver holds back to the arena:
    // the staging band and rings when the source fails, and the tile in
    // flight when the sink does.
    class FailingSource final : public wavehpc::tile::TileSource {
    public:
        [[nodiscard]] std::size_t rows() const override { return inner_.rows(); }
        [[nodiscard]] std::size_t cols() const override { return inner_.cols(); }
        void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override {
            if (++reads_ == 3) throw std::runtime_error("truncated scene");
            inner_.read_rows(y0, n, dst);
        }

    private:
        wavehpc::tile::SyntheticTileSource inner_{256, 256, 4};
        int reads_ = 0;
    };
    class FailingSink final : public wavehpc::tile::TileSink {
    public:
        explicit FailingSink(wavehpc::core::FloatBufferSource& buffers)
            : discard_(buffers), buffers_(buffers) {}
        void on_detail(const wavehpc::tile::TileCoord& coord,
                       wavehpc::core::DetailBands&& bands) override {
            discard_.on_detail(coord, std::move(bands));
        }
        void on_approx(const wavehpc::tile::TileCoord& /*coord*/, ImageF&& ll) override {
            buffers_.recycle(ll.release_data());
            throw std::runtime_error("sink gave up");
        }

    private:
        wavehpc::tile::DiscardSink discard_;
        wavehpc::core::FloatBufferSource& buffers_;
    };
    const auto fp = FilterPair::daubechies(4);
    TileConfig cfg;
    cfg.tile_rows = 32;
    cfg.tile_cols = 64;
    {
        wavehpc::svc::BufferArena arena;
        FailingSource src;
        wavehpc::tile::DiscardSink sink(arena);
        EXPECT_THROW((void)wavehpc::tile::stream_decompose(
                         src, fp, 2, BoundaryMode::Periodic, DwtKernel::Convolve, cfg,
                         sink, &arena),
                     std::runtime_error);
        EXPECT_EQ(arena.stats().bytes_outstanding, 0U) << "source failure";
    }
    {
        wavehpc::svc::BufferArena arena;
        wavehpc::tile::SyntheticTileSource src(256, 256, 4);
        FailingSink sink(arena);
        EXPECT_THROW((void)wavehpc::tile::stream_decompose(
                         src, fp, 2, BoundaryMode::Periodic, DwtKernel::Convolve, cfg,
                         sink, &arena),
                     std::runtime_error);
        EXPECT_EQ(arena.stats().bytes_outstanding, 0U) << "sink failure";
    }
}

TEST(ArenaReserve, IsAdditiveAndCountsSeparatelyFromMisses) {
    wavehpc::svc::BufferArena arena;
    const std::size_t cls0 = arena.class_floats(0);
    arena.reserve(cls0 / 2, 3);  // rounds up into class 0
    arena.reserve(cls0, 2);      // same class: must SUM, not alias
    const auto stats = arena.stats();
    EXPECT_EQ(stats.reserved_slabs, 5U);
    EXPECT_EQ(stats.misses, 0U);
    EXPECT_EQ(arena.pooled_per_class().at(0), 5U);
    for (int i = 0; i < 5; ++i) {
        auto buf = arena.obtain(cls0);
        EXPECT_EQ(buf.capacity(), cls0);
        // Deliberately leaked from the pool's view only for this scope:
        buf.clear();
    }
    EXPECT_EQ(arena.stats().hits, 5U);
    EXPECT_EQ(arena.stats().misses, 0U);
}

// ---------------------------------------------------------------------------
// Windowed PGM reader (satellite 1)
// ---------------------------------------------------------------------------

class PgmWindow : public ::testing::Test {
protected:
    // One file per process and case: ctest runs every case as its own
    // process, concurrently.
    void SetUp() override {
        const std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        path_ = (std::filesystem::temp_directory_path() /
                 ("wavehpc_tile_window_" + std::to_string(::getpid()) + "_" + name + ".pgm"))
                    .string();
    }
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_;
};

TEST_F(PgmWindow, BinaryWindowsMatchFullRead) {
    const ImageF img = scene(24, 17, 5);
    wavehpc::core::write_pgm(img, path_);
    const ImageF full = wavehpc::core::read_pgm(path_);
    const auto info = wavehpc::core::read_pgm_header(path_);
    EXPECT_EQ(info.rows, 24U);
    EXPECT_EQ(info.cols, 17U);
    EXPECT_EQ(info.maxval, 255U);
    for (const auto& [y0, n] : {std::pair<std::size_t, std::size_t>{0, 24},
                               {0, 1},
                               {5, 7},
                               {23, 1}}) {
        const ImageF win = wavehpc::core::read_pgm_rows(path_, y0, n);
        ASSERT_EQ(win.rows(), n);
        ASSERT_EQ(win.cols(), 17U);
        EXPECT_EQ(win, full.sub(y0, 0, n, 17)) << "y0=" << y0 << " n=" << n;
    }
}

TEST_F(PgmWindow, AsciiWindowsSkipTokensCorrectly) {
    std::ofstream out(path_);
    out << "P2\n# comment\n3 4\n255\n";
    for (int v = 0; v < 12; ++v) out << v * 9 << "\n";
    out.close();
    const ImageF win = wavehpc::core::read_pgm_rows(path_, 2, 2);
    ASSERT_EQ(win.rows(), 2U);
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(win(0, c), static_cast<float>((6 + c) * 9));
        EXPECT_EQ(win(1, c), static_cast<float>((9 + c) * 9));
    }
}

TEST_F(PgmWindow, RejectsBadWindows) {
    wavehpc::core::write_pgm(scene(8, 8, 1), path_);
    EXPECT_THROW((void)wavehpc::core::read_pgm_rows(path_, 0, 0),
                 std::runtime_error);
    EXPECT_THROW((void)wavehpc::core::read_pgm_rows(path_, 9, 1),
                 std::runtime_error);
    EXPECT_THROW((void)wavehpc::core::read_pgm_rows(path_, 4, 5),
                 std::runtime_error);
}

TEST_F(PgmWindow, SourceStreamsWindowsIdenticalToFullDecode) {
    const ImageF img = scene(16, 12, 3);
    wavehpc::core::write_pgm(img, path_);
    wavehpc::tile::PgmTileSource src(path_);
    ASSERT_EQ(src.rows(), 16U);
    ASSERT_EQ(src.cols(), 12U);
    ImageF assembled(16, 12);
    for (std::size_t y0 = 0; y0 < 16; y0 += 5) {
        const std::size_t n = std::min<std::size_t>(5, 16 - y0);
        src.read_rows(y0, n, assembled.flat().subspan(y0 * 12, n * 12));
    }
    EXPECT_EQ(assembled, wavehpc::core::read_pgm(path_));
}

// ---------------------------------------------------------------------------
// Progressive delivery
// ---------------------------------------------------------------------------

TEST(Progressive, ApproxIsScheduledFirstAndStrictlyBeforeFull) {
    const ImageF img = scene(64, 64, 21);
    const auto fp = FilterPair::daubechies(4);
    wavehpc::core::HeapBufferSource buffers;
    wavehpc::tile::ProgressiveStore store(64, 64, 2, buffers);
    wavehpc::tile::InMemoryTileSource src(img);
    TileConfig cfg;
    cfg.tile_rows = 16;
    cfg.tile_cols = 32;
    (void)wavehpc::tile::stream_decompose(src, fp, 2, BoundaryMode::Periodic,
                                          DwtKernel::Convolve, cfg, store,
                                          &buffers);
    EXPECT_GT(store.approx_seal_seconds(), 0.0);
    EXPECT_GE(store.level_seal_seconds(0), 0.0);

    const wavehpc::tile::ProgressiveDelivery plan(
        store.pyramid(), 1 << 20, store.approx_seal_seconds());
    const auto& items = plan.schedule();
    ASSERT_EQ(items.size(), 1U + 3U * 2U);
    EXPECT_EQ(items.front().kind, wavehpc::tile::BandKind::Approx);
    // Coarsest detail level right after the approximation band.
    EXPECT_EQ(items[1].level, 1);
    for (std::size_t i = 1; i < items.size(); ++i) {
        EXPECT_GT(items[i].deliver_seconds, items[i - 1].deliver_seconds);
    }
    EXPECT_LT(plan.time_to_first_band(), plan.time_to_full());
    EXPECT_GE(plan.time_to_first_band(), store.approx_seal_seconds());
}

TEST(Progressive, PreviewBpsEnvKnob) {
    EXPECT_DOUBLE_EQ(wavehpc::tile::preview_bytes_per_second(), 8.0 * (1 << 20));
}

// ---------------------------------------------------------------------------
// Service integration: progressive flights + cached previews
// ---------------------------------------------------------------------------

TEST(ServiceProgressive, ProgressiveFlightIsBitIdenticalAndCachesPreview) {
    using wavehpc::svc::PyramidService;
    using wavehpc::svc::ServiceConfig;
    using wavehpc::svc::TransformRequest;

    auto img = std::make_shared<const ImageF>(scene(64, 64, 33));
    const auto fp = FilterPair::daubechies(4);
    const Pyramid want = wavehpc::core::decompose(
        *img, fp, 2, BoundaryMode::Periodic, DwtKernel::Convolve);

    wavehpc::runtime::ThreadPool pool(1);
    ServiceConfig cfg;
    cfg.max_queue_depth = 1;
    cfg.max_concurrency = 1;
    // Budget fits the (tiny) preview but rejects the full pyramid as
    // oversize, so the degraded fallback below must come from the preview.
    cfg.cache_bytes = 2048;
    PyramidService service(pool, cfg);

    TransformRequest req;
    req.image = img;
    req.taps = 4;
    req.levels = 2;
    req.kernel = DwtKernel::Convolve;
    req.progressive = true;
    auto sub = service.submit(req);
    ASSERT_TRUE(sub.accepted);
    const auto reply = sub.future.get();
    expect_bands_eq(reply.result->pyramid, want, "service progressive");
    EXPECT_GT(reply.result->first_band_seconds, 0.0);
    EXPECT_LE(reply.result->first_band_seconds, reply.result->compute_seconds);

    // Saturate: park the only worker, occupy the compute slot and the
    // one queue seat with fresh scenes.
    std::promise<void> gate;
    std::shared_future<void> opened(gate.get_future());
    pool.submit([opened] { opened.wait(); });
    auto blocker = service.submit(
        [&] {
            TransformRequest r;
            r.image = std::make_shared<const ImageF>(scene(64, 64, 34));
            r.taps = 4;
            r.levels = 2;
            return r;
        }());
    ASSERT_TRUE(blocker.accepted);
    auto queued = service.submit(
        [&] {
            TransformRequest r;
            r.image = std::make_shared<const ImageF>(scene(64, 64, 35));
            r.taps = 4;
            r.levels = 2;
            return r;
        }());
    ASSERT_TRUE(queued.accepted);

    TransformRequest degraded = req;
    degraded.progressive = false;
    degraded.allow_degraded = true;
    auto preview = service.submit(degraded);
    ASSERT_TRUE(preview.accepted);
    const auto preview_reply = preview.future.get();
    EXPECT_TRUE(preview_reply.degraded);
    EXPECT_TRUE(preview_reply.preview);
    EXPECT_EQ(preview_reply.result->pyramid.depth(), 0U);
    EXPECT_EQ(preview_reply.result->pyramid.approx, want.approx);

    gate.set_value();
    (void)blocker.future.get();
    (void)queued.future.get();

    const auto metrics = service.metrics();
    EXPECT_EQ(metrics.counters.progressive, 1U);
    EXPECT_EQ(metrics.counters.preview_hits, 1U);
    EXPECT_GE(metrics.counters.degraded_replies, 1U);
}

}  // namespace
