// Tiled gigapixel DWT pipeline (ISSUE 9): the tier-1 contract is BIT
// identity — every coefficient of the tiled/streamed pyramid, interior
// and edge, equals the monolithic core::decompose output exactly, for
// every tile size x taps x levels x boundary mode combination —
// plus the constant-memory claims (zero warm allocations after
// TilePlan::reservations(), height-independent peak residency) and the
// windowed PGM reader.

#include "tile/tiled_dwt.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pgm_io.hpp"
#include "core/synthetic.hpp"
#include "mesh/faults.hpp"
#include "nan_arena.hpp"
#include "svc/arena.hpp"
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
    // Ring capped at taps rows, never past the plane height.
    EXPECT_EQ(plan.level[0].ring_rows, std::min<std::size_t>(256, 8));
    EXPECT_EQ(plan.level[2].ring_rows, std::min<std::size_t>(64, 8));
    EXPECT_EQ(TilePlan::build(8, 512, 2, 8, cfg).level[1].ring_rows, 4U);  // in_rows
    EXPECT_EQ(plan.level[0].head_rows, 6U);  // taps - 2
    EXPECT_FALSE(plan.reservations().empty());
    EXPECT_GT(plan.resident_bytes_bound(), 0U);
}

TEST(TilePlan, GigapixelStreamBoundHoldsOneBandOfTilesPerLevel) {
    // 16384^2, 8 taps, 4 levels, 128x256 tiles, in bytes; the four levels'
    // output widths are 8192, 4096, 2048 and 1024 floats:
    //   staging, one 16384-float input row                      65,536
    //   rings, 8 rows x width x lo/hi per level                983,040
    //   heads, 6 rows x width x lo/hi per level                737,280
    //   LL rows, levels 0-2: 8192 + 4096 + 2048 floats          57,344
    //   one band of tiles per level, 32 + 16 + 8 + 4 across,
    //   3 slabs each (4 at the last): 184 slabs of 128x256  24,117,248
    //   total                                               25,960,448
    TileConfig cfg;
    cfg.tile_rows = 128;
    cfg.tile_cols = 256;
    const TilePlan plan = TilePlan::build(16384, 16384, 4, 8, cfg);
    EXPECT_EQ(plan.resident_bytes_bound(), 25960448U);
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
    // A column segment's LL lands at ll_col0 of a wider destination with
    // the whole-plane bits; the rest of the destination is not touched, and
    // one too short or too narrow is rejected.
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

TEST(AnalyzeColsRow, ComputesEachRowFromTheRingOnceItIsDue) {
    // Row-pass rows arrive one at a time into a taps-row ring and a
    // (taps-2)-row head; output row k, computed as soon as row 2k+taps-1
    // (or the last row) has arrived, has the whole-plane bits, and asking
    // for it one row early throws because a tap row is not resident.
    const ImageF img = scene(16, 48, 5);
    const std::size_t rows = 16, c0 = 5, width = 11;
    for (const int taps : {2, 4, 8}) {
        const auto fp = FilterPair::daubechies(taps);
        const auto t = static_cast<std::size_t>(taps);
        for (const BoundaryMode mode : kModes) {
            const std::string tag = "taps " + std::to_string(taps) + " mode " +
                                    std::to_string(static_cast<int>(mode));
            ImageF lo(rows, 24), hi(rows, 24);
            wavehpc::core::analyze_rows_range(img, fp, lo, hi, mode, DwtKernel::Convolve, 0,
                                              rows);
            ImageF ll(8, 24), lh(8, 24), hl(8, 24), hh(8, 24);
            wavehpc::core::analyze_cols_range(lo, hi, fp, ll, lh, hl, hh, mode,
                                              DwtKernel::Convolve, 0, 8);
            ImageF lo_ring(t, 24), hi_ring(t, 24), lo_head(t - 2, 24), hi_head(t - 2, 24);
            std::vector<float> row_ll(width), row_lh(width), row_hl(width), row_hh(width);
            std::size_t next = 0;
            for (std::size_t produced = 1; produced <= rows; ++produced) {
                const std::size_t r = produced - 1;
                lo_ring.paste(lo.sub(r, 0, 1, 24), r % t, 0);
                hi_ring.paste(hi.sub(r, 0, 1, 24), r % t, 0);
                if (r < t - 2) {
                    lo_head.paste(lo.sub(r, 0, 1, 24), r, 0);
                    hi_head.paste(hi.sub(r, 0, 1, 24), r, 0);
                }
                const wavehpc::core::RingRows lo_rows{lo_ring, lo_head, produced, c0};
                const wavehpc::core::RingRows hi_rows{hi_ring, hi_head, produced, c0};
                const auto compute = [&](std::size_t k) {
                    wavehpc::core::analyze_cols_row(lo_rows, hi_rows, rows, width, fp, mode,
                                                    k, row_ll, row_lh, row_hl, row_hh);
                };
                for (; next < 8 && produced >= std::min(2 * next + t, rows); ++next) {
                    compute(next);
                    const auto segment = [&](const ImageF& band) {
                        const auto full = band.row(next).subspan(c0, width);
                        return std::vector<float>(full.begin(), full.end());
                    };
                    EXPECT_EQ(row_ll, segment(ll)) << tag << " row " << next;
                    EXPECT_EQ(row_lh, segment(lh)) << tag << " row " << next;
                    EXPECT_EQ(row_hl, segment(hl)) << tag << " row " << next;
                    EXPECT_EQ(row_hh, segment(hh)) << tag << " row " << next;
                }
                if (next < 8 && produced + 1 == std::min(2 * next + t, rows)) {
                    EXPECT_THROW(compute(next), std::logic_error) << tag << " row " << next;
                }
            }
            EXPECT_EQ(next, 8U) << tag;
            const wavehpc::core::RingRows lo_all{lo_ring, lo_head, rows, c0};
            const wavehpc::core::RingRows hi_all{hi_ring, hi_head, rows, c0};
            std::vector<float> narrow(width - 1);
            EXPECT_THROW(wavehpc::core::analyze_cols_row(lo_all, hi_all, rows, width, fp,
                                                         mode, 7, narrow, row_lh, row_hl,
                                                         row_hh),
                         std::invalid_argument)
                << tag;
        }
    }
}

// ---------------------------------------------------------------------------
// Synthetic scene generator
// ---------------------------------------------------------------------------

TEST(SyntheticScene, PixelsMatchTheirPinnedCrcs) {
    // CRC-32 of materialize()'s bytes, which a change to the generator must
    // keep: shapes narrower than one lattice cell, one column either side
    // of the 64-pixel cell, and a 16384-wide row pair, under three seeds.
    struct Case {
        std::size_t rows, cols;
        std::uint64_t seed;
        std::uint32_t crc;
    };
    const Case cases[] = {
        {1, 1, 1, 0x56206bd5U},       {1, 1, 42, 0x3cf5ac7fU},       {1, 1, 1996, 0xd184dae0U},
        {3, 5, 1, 0x1ec8391dU},       {3, 5, 42, 0x4ef143ccU},       {3, 5, 1996, 0x93e8c03eU},
        {64, 63, 1, 0xf2afe033U},     {64, 63, 42, 0x3d50b22dU},     {64, 63, 1996, 0xea5077ecU},
        {65, 65, 1, 0x7793e613U},     {65, 65, 42, 0xd77f8fecU},     {65, 65, 1996, 0xdb2d2905U},
        {192, 192, 1, 0x5cfa1e73U},   {192, 192, 42, 0x71c73c1dU},   {192, 192, 1996, 0x6a8c687dU},
        {7, 257, 1, 0x8f3c31aeU},     {7, 257, 42, 0x77ec3e6bU},     {7, 257, 1996, 0xf3e206e8U},
        {2, 16384, 1, 0x787ba346U},   {2, 16384, 42, 0xc83e26f2U},   {2, 16384, 1996, 0xb1d9f06fU},
    };
    for (const Case& c : cases) {
        const ImageF img =
            wavehpc::tile::SyntheticTileSource(c.rows, c.cols, c.seed).materialize();
        EXPECT_EQ(wavehpc::mesh::crc32(std::as_bytes(img.flat())), c.crc)
            << c.rows << "x" << c.cols << " seed " << c.seed;
    }
}

TEST(SyntheticScene, BandSplitDoesNotChangeThePixels) {
    // Any window split of the same scene yields the same bytes: one row at a
    // time, seven at a time (a short last window), and all at once.
    for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{65, 65},
                                    {100, 257}, {7, 33}}) {
        wavehpc::tile::SyntheticTileSource src(rows, cols, 7);
        const ImageF whole = src.materialize();
        for (const std::size_t step : {std::size_t{1}, std::size_t{7}, rows}) {
            ImageF split(rows, cols);
            for (std::size_t y0 = 0; y0 < rows; y0 += step) {
                const std::size_t n = std::min(step, rows - y0);
                src.read_rows(y0, n, split.flat().subspan(y0 * cols, n * cols));
            }
            EXPECT_EQ(split, whole) << rows << "x" << cols << " in windows of " << step;
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
                    // A fresh arena holding only NaN slabs: a stream that
                    // needed more buffers than it holds would take a fresh
                    // one (a miss). The 16x16 grid at 3 levels peaks at 44
                    // buffers of one class, its assembler's 10 included.
                    wavehpc::svc::BufferArena arena;
                    wavehpc::testing::prime_with_nan(arena, img.size(), 64);
                    const auto misses = arena.stats().misses;
                    expect_bands_eq(
                        wavehpc::tile::tiled_decompose(img, fp, levels, mode, cfg, &arena),
                        want, tag + " arena");
                    EXPECT_EQ(arena.stats().misses, misses) << tag << " took a fresh slab";
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
    // 320 columns give level 0 a short edge tile; 512 give it four tiles of
    // one width, all of them held until the band's last row.
    const auto fp = FilterPair::daubechies(8);
    TileConfig cfg;
    cfg.tile_rows = 32;
    cfg.tile_cols = 64;
    for (const std::size_t cols : {320, 512}) {
        const TilePlan plan = TilePlan::build(256, cols, 3, 8, cfg);
        wavehpc::svc::BufferArena arena;
        for (const auto& r : plan.reservations()) arena.reserve(r.floats, r.count);
        const auto before = arena.stats();
        EXPECT_EQ(before.misses, 0U);
        EXPECT_GT(before.reserved_slabs, 0U);

        wavehpc::tile::SyntheticTileSource src(256, cols, 9);
        wavehpc::tile::DiscardSink sink(arena);
        (void)wavehpc::tile::stream_decompose(src, fp, 3, BoundaryMode::Periodic,
                                              DwtKernel::Convolve, cfg, sink, &arena);
        const auto after = arena.stats();
        EXPECT_EQ(after.misses, 0U) << cols << " cols: stream allocated outside the "
                                       "reservation set";
        EXPECT_EQ(after.heap_fallbacks, 0U);
        EXPECT_GT(after.hits, 0U);
    }
}

TEST(TiledStreaming, IngestReadsEachRowOnceInOrderOneAtATime) {
    // The driver reads its source one full-width row per call, front to
    // back, each row exactly once, whatever the tile height, also when the
    // plane is shorter than one band (96 rows: 48 output rows of a
    // 128-row band).
    class CountingSource final : public wavehpc::tile::TileSource {
    public:
        CountingSource(std::size_t rows, std::size_t cols) : inner_(rows, cols, 5) {}
        [[nodiscard]] std::size_t rows() const override { return inner_.rows(); }
        [[nodiscard]] std::size_t cols() const override { return inner_.cols(); }
        void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override {
            calls.emplace_back(y0, n);
            inner_.read_rows(y0, n, dst);
        }

        std::vector<std::pair<std::size_t, std::size_t>> calls;

    private:
        wavehpc::tile::SyntheticTileSource inner_;
    };
    const auto fp = FilterPair::daubechies(4);
    for (const auto& [rows, tile_rows] : {std::pair<std::size_t, std::size_t>{512, 1},
                                          {512, 32},
                                          {512, 128},
                                          {96, 128}}) {
        const std::string tag =
            std::to_string(rows) + " rows, tile_rows " + std::to_string(tile_rows);
        TileConfig cfg;
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = 48;
        CountingSource src(rows, 80);
        wavehpc::core::HeapBufferSource buffers;
        wavehpc::tile::PyramidAssembler sink(rows, 80, 2, buffers);
        (void)wavehpc::tile::stream_decompose(src, fp, 2, BoundaryMode::Symmetric,
                                              DwtKernel::Convolve, cfg, sink, &buffers);
        ASSERT_EQ(src.calls.size(), rows) << tag;
        for (std::size_t y = 0; y < rows; ++y) {
            ASSERT_EQ(src.calls[y], std::make_pair(y, std::size_t{1})) << tag << " read " << y;
        }
        expect_bands_eq(sink.pyramid(),
                        wavehpc::core::decompose(
                            wavehpc::tile::SyntheticTileSource(rows, 80, 5).materialize(),
                            fp, 2, BoundaryMode::Symmetric),
                        tag);
    }
}

TEST(TiledStreaming, AFailedStreamReturnsEveryDriverBuffer) {
    // A stream that ends in an exception (a truncated PGM, a sink that
    // gives up) hands every buffer the driver holds back to the arena:
    // the staging row, rings and the tiles of every band in progress when
    // the source fails, and those tiles when the sink does, also those of
    // the band the sink gave up in that it has not yet been handed.
    class FailingSource final : public wavehpc::tile::TileSource {
    public:
        explicit FailingSource(const wavehpc::svc::BufferArena& arena) : arena_(arena) {}
        [[nodiscard]] std::size_t rows() const override { return inner_.rows(); }
        [[nodiscard]] std::size_t cols() const override { return inner_.cols(); }
        void read_rows(std::size_t y0, std::size_t n, std::span<float> dst) override {
            if (++reads_ == 1) first_read_outstanding = arena_.stats().bytes_outstanding;
            // Row 99: level 0 has computed 48 output rows, so its second
            // 32-row band is half done, and level 1 its first.
            if (reads_ == 100) {
                failure_outstanding = arena_.stats().bytes_outstanding;
                throw std::runtime_error("truncated scene");
            }
            inner_.read_rows(y0, n, dst);
        }

        std::uint64_t first_read_outstanding = 0;
        std::uint64_t failure_outstanding = 0;

    private:
        const wavehpc::svc::BufferArena& arena_;
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
    class MidBandSink final : public wavehpc::tile::TileSink {
    public:
        explicit MidBandSink(wavehpc::core::FloatBufferSource& buffers)
            : discard_(buffers) {}
        void on_detail(const wavehpc::tile::TileCoord& coord,
                       wavehpc::core::DetailBands&& bands) override {
            discard_.on_detail(coord, std::move(bands));
            if (coord.level == 0 && ++level0_tiles_ == 2) {
                throw std::runtime_error("sink gave up mid-band");
            }
        }
        void on_approx(const wavehpc::tile::TileCoord& coord, ImageF&& ll) override {
            discard_.on_approx(coord, std::move(ll));
        }

    private:
        wavehpc::tile::DiscardSink discard_;
        int level0_tiles_ = 0;
    };
    const auto fp = FilterPair::daubechies(4);
    TileConfig cfg;
    cfg.tile_rows = 32;
    cfg.tile_cols = 64;
    {
        wavehpc::svc::BufferArena arena;
        FailingSource src(arena);
        wavehpc::tile::DiscardSink sink(arena);
        EXPECT_THROW((void)wavehpc::tile::stream_decompose(
                         src, fp, 2, BoundaryMode::Periodic, DwtKernel::Convolve, cfg,
                         sink, &arena),
                     std::runtime_error);
        // At the first read the driver held only its staging row, rings,
        // heads and LL row; at the failure it also held tiles.
        EXPECT_GT(src.failure_outstanding, src.first_read_outstanding);
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
    {
        // Four tiles across level 0: the sink throws on the second, so the
        // third and fourth are still the driver's.
        ASSERT_EQ(TilePlan::build(256, 512, 2, 4, cfg).level[0].tiles_across, 4U);
        wavehpc::svc::BufferArena arena;
        wavehpc::tile::SyntheticTileSource src(256, 512, 4);
        MidBandSink sink(arena);
        EXPECT_THROW((void)wavehpc::tile::stream_decompose(
                         src, fp, 2, BoundaryMode::Periodic, DwtKernel::Convolve, cfg,
                         sink, &arena),
                     std::runtime_error);
        EXPECT_EQ(arena.stats().bytes_outstanding, 0U) << "sink failure mid-band";
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
    enum class Format { kP5_8bit, kP5_16bit, kP2 };
    static constexpr Format kFormats[] = {Format::kP5_8bit, Format::kP5_16bit, Format::kP2};

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

    [[nodiscard]] static std::size_t maxval(Format format) {
        return format == Format::kP5_16bit ? 65535 : 255;
    }

    /// Sample (r, c) of write_raster's raster: scattered over the format's
    /// whole range.
    [[nodiscard]] static std::size_t sample(Format format, std::size_t r, std::size_t c) {
        return (r * 7919 + c * 104729 + r * c * 31) % (maxval(format) + 1);
    }

    /// A rows x cols raster of sample(), with a comment line in the header.
    void write_raster(Format format, std::size_t rows, std::size_t cols) const {
        std::ofstream out(path_, std::ios::binary);
        out << (format == Format::kP2 ? "P2" : "P5") << "\n# test raster\n"
            << cols << ' ' << rows << '\n' << maxval(format) << '\n';
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
                const std::size_t v = sample(format, r, c);
                if (format == Format::kP2) {
                    out << v << (c + 1 == cols ? '\n' : ' ');
                } else {
                    if (format == Format::kP5_16bit) out.put(static_cast<char>(v >> 8));
                    out.put(static_cast<char>(v & 0xFF));
                }
            }
        }
    }

    [[nodiscard]] static std::string name(Format format) {
        return format == Format::kP2 ? "P2" : format == Format::kP5_8bit ? "P5 8-bit"
                                                                         : "P5 16-bit";
    }

    std::string path_;
};

TEST_F(PgmWindow, BinaryWindowsMatchFullRead) {
    const ImageF img = scene(24, 17, 5);
    wavehpc::core::write_pgm(img, path_);
    const ImageF full = wavehpc::core::read_pgm(path_);
    const auto info = wavehpc::core::PgmReader(path_).info();
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

TEST_F(PgmWindow, StreamedFilesMatchTheMonolithicDecompose) {
    // Each format streams row by row through one open source into the
    // pyramid core::decompose makes of the decoded file, in every mode.
    const auto fp = FilterPair::daubechies(8);
    TileConfig cfg;
    cfg.tile_rows = 8;
    cfg.tile_cols = 16;
    for (const Format format : kFormats) {
        write_raster(format, 48, 40);
        const ImageF img = wavehpc::core::read_pgm(path_);
        for (const BoundaryMode mode : kModes) {
            wavehpc::tile::PgmTileSource src(path_);
            wavehpc::core::HeapBufferSource buffers;
            wavehpc::tile::PyramidAssembler sink(48, 40, 3, buffers);
            (void)wavehpc::tile::stream_decompose(src, fp, 3, mode, DwtKernel::Convolve, cfg,
                                                  sink, &buffers);
            expect_bands_eq(sink.pyramid(), wavehpc::core::decompose(img, fp, 3, mode),
                            name(format) + " mode " + std::to_string(static_cast<int>(mode)));
        }
    }
}

TEST_F(PgmWindow, WindowsOutOfOrderReadTheRightRows) {
    // Forward seeks, continued windows, rewinds, a repeated window, the last
    // row and the whole raster, all from one open source, against the
    // samples written (16-bit ones big-endian).
    const std::pair<std::size_t, std::size_t> windows[] = {
        {5, 3}, {8, 2}, {0, 1}, {23, 1}, {1, 4}, {1, 4}, {5, 19}, {0, 24}, {12, 6}};
    for (const Format format : kFormats) {
        write_raster(format, 24, 17);
        ImageF full(24, 17);
        for (std::size_t r = 0; r < 24; ++r) {
            for (std::size_t c = 0; c < 17; ++c) {
                full(r, c) = static_cast<float>(sample(format, r, c));
            }
        }
        EXPECT_EQ(wavehpc::core::read_pgm(path_), full) << name(format);
        wavehpc::tile::PgmTileSource src(path_);
        for (const auto& [y0, n] : windows) {
            ImageF got(n, 17);
            src.read_rows(y0, n, got.flat());
            EXPECT_EQ(got, full.sub(y0, 0, n, 17))
                << name(format) << " y0=" << y0 << " n=" << n;
        }
    }
}

TEST_F(PgmWindow, TruncatedRasterFailsTheStreamAndReturnsEveryBuffer) {
    // The header is whole, so the source opens; the raster ends about 60 %
    // of the way down, so the stream throws part-way, and the driver hands
    // back every buffer it held.
    const auto fp = FilterPair::daubechies(4);
    TileConfig cfg;
    cfg.tile_rows = 8;
    cfg.tile_cols = 16;
    for (const Format format : kFormats) {
        write_raster(format, 64, 32);
        std::filesystem::resize_file(path_, std::filesystem::file_size(path_) * 3 / 5);
        wavehpc::tile::PgmTileSource src(path_);
        wavehpc::svc::BufferArena arena;
        wavehpc::tile::DiscardSink sink(arena);
        EXPECT_THROW((void)wavehpc::tile::stream_decompose(src, fp, 2, BoundaryMode::Periodic,
                                                           DwtKernel::Convolve, cfg, sink,
                                                           &arena),
                     std::runtime_error)
            << name(format);
        EXPECT_EQ(arena.stats().bytes_outstanding, 0U) << name(format);
    }
}

}  // namespace
