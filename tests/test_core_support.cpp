// Metrics, PGM I/O, synthetic scenes, the calibrated cost model, and the
// stripe-decomposition helpers.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/cost_model.hpp"
#include "core/metrics.hpp"
#include "core/pgm_io.hpp"
#include "core/stripe.hpp"
#include "core/synthetic.hpp"

namespace {

using wavehpc::core::CalibrationPoint;
using wavehpc::core::Coord2;
using wavehpc::core::ImageF;
using wavehpc::core::MappingPolicy;
using wavehpc::core::SequentialCostModel;
using wavehpc::core::StripePartition;
using wavehpc::core::Table1Reference;
using wavehpc::core::WaveletWork;

TEST(Metrics, MaxAbsAndRms) {
    ImageF a(2, 2, 1.0F);
    ImageF b(2, 2, 1.0F);
    b(1, 1) = 4.0F;
    EXPECT_DOUBLE_EQ(wavehpc::core::max_abs_diff(a, b), 3.0);
    EXPECT_NEAR(wavehpc::core::rms_diff(a, b), 1.5, 1e-12);
    EXPECT_THROW((void)wavehpc::core::max_abs_diff(a, ImageF(2, 3)),
                 std::invalid_argument);
}

TEST(Metrics, PsnrIsInfiniteForIdenticalImages) {
    ImageF a(4, 4, 10.0F);
    EXPECT_TRUE(std::isinf(wavehpc::core::psnr(a, a)));
    ImageF b = a;
    b(0, 0) += 1.0F;
    EXPECT_GT(wavehpc::core::psnr(a, b), 40.0);
}

TEST(Metrics, EnergySumsSquares) {
    ImageF a(1, 3);
    a(0, 0) = 1.0F;
    a(0, 1) = 2.0F;
    a(0, 2) = 3.0F;
    EXPECT_DOUBLE_EQ(wavehpc::core::energy(a), 14.0);
}

class PgmRoundTrip : public ::testing::Test {
protected:
    // One file per process and case: ctest runs every case as its own
    // process, concurrently.
    void SetUp() override {
        const std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        path_ = (std::filesystem::temp_directory_path() /
                 ("wavehpc_test_img_" + std::to_string(::getpid()) + "_" + name + ".pgm"))
                    .string();
    }
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_;
};

TEST_F(PgmRoundTrip, WriteThenReadPreservesPixels) {
    const ImageF img = wavehpc::core::landsat_tm_like(16, 24, 5);
    wavehpc::core::write_pgm(img, path_);
    const ImageF back = wavehpc::core::read_pgm(path_);
    ASSERT_EQ(back.rows(), 16U);
    ASSERT_EQ(back.cols(), 24U);
    // 8-bit quantization: within half a grey level.
    EXPECT_LE(wavehpc::core::max_abs_diff(img, back), 0.5 + 1e-6);
}

TEST_F(PgmRoundTrip, ReadRejectsGarbage) {
    {
        std::ofstream out(path_);
        out << "P6 2 2 255\nxxxx";
    }
    EXPECT_THROW((void)wavehpc::core::read_pgm(path_), std::runtime_error);
    EXPECT_THROW((void)wavehpc::core::read_pgm("/nonexistent/nope.pgm"),
                 std::runtime_error);
}

TEST_F(PgmRoundTrip, RejectsHostileHeaderDimensions) {
    // A hostile header must not trigger a multi-GB allocation attempt.
    {
        std::ofstream out(path_);
        out << "P5\n70000 70000\n255\n";
    }
    EXPECT_THROW((void)wavehpc::core::read_pgm(path_), std::runtime_error);
    {
        std::ofstream out(path_);
        out << "P2\n100000 2\n255\n0 0\n";  // single dimension over the cap
    }
    EXPECT_THROW((void)wavehpc::core::read_pgm(path_), std::runtime_error);
    {
        std::ofstream out(path_);
        // Both dimensions individually fine; the pixel-count cap must trip.
        out << "P5\n65536 65536\n255\n";
    }
    EXPECT_THROW((void)wavehpc::core::read_pgm(path_), std::runtime_error);
}

TEST_F(PgmRoundTrip, HighBitHeaderBytesFailCleanly) {
    // Bytes >= 0x80 between header tokens are negative as plain char; they
    // must reach std::isspace via unsigned char (UB otherwise) and lead to
    // a clean parse error, not a crash.
    {
        std::ofstream out(path_, std::ios::binary);
        out << "P2\n\xFF\xA0 2 2\n255\n1 2 3 4\n";
    }
    EXPECT_THROW((void)wavehpc::core::read_pgm(path_), std::runtime_error);
}

TEST_F(PgmRoundTrip, TruncatedHeaderHitsEofNotInfiniteLoop) {
    {
        std::ofstream out(path_);
        out << "P5\n16 ";  // height and maxval missing
    }
    EXPECT_THROW((void)wavehpc::core::read_pgm(path_), std::runtime_error);
}

TEST_F(PgmRoundTrip, IntegerImageRoundTripsBitIdentically) {
    // write_pgm quantizes to 8-bit; an image already holding integers in
    // [0, 255] must survive write -> read with zero error, and a second
    // write -> read must be a fixpoint byte for byte.
    ImageF img(16, 24);
    for (std::size_t r = 0; r < img.rows(); ++r) {
        for (std::size_t c = 0; c < img.cols(); ++c) {
            img(r, c) = static_cast<float>((r * 31 + c * 7) % 256);
        }
    }
    wavehpc::core::write_pgm(img, path_);
    const ImageF back = wavehpc::core::read_pgm(path_);
    ASSERT_EQ(back.rows(), img.rows());
    ASSERT_EQ(back.cols(), img.cols());
    EXPECT_EQ(wavehpc::core::max_abs_diff(img, back), 0.0);

    const std::string path2 = path_ + ".second";
    wavehpc::core::write_pgm(back, path2);
    std::ifstream a(path_, std::ios::binary);
    std::ifstream b(path2, std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    std::remove(path2.c_str());
    EXPECT_EQ(bytes_a, bytes_b);
}

TEST_F(PgmRoundTrip, RejectsJunkAfterMaxval) {
    // A non-whitespace byte between maxval and the raster must be an error:
    // consuming it as the separator would shift every pixel by one byte.
    {
        std::ofstream out(path_, std::ios::binary);
        out << "P5\n2 2\n255Q\n";
        out.write("\x01\x02\x03\x04", 4);
    }
    EXPECT_THROW((void)wavehpc::core::read_pgm(path_), std::runtime_error);
}

TEST_F(PgmRoundTrip, RejectsJunkInAsciiRaster) {
    {
        std::ofstream out(path_);
        out << "P2\n2 2\n255\n0 64 junk 255\n";
    }
    EXPECT_THROW((void)wavehpc::core::read_pgm(path_), std::runtime_error);
}

TEST_F(PgmRoundTrip, ReadsAsciiP2) {
    {
        std::ofstream out(path_);
        out << "P2\n# comment line\n2 2\n255\n0 64\n128 255\n";
    }
    const ImageF img = wavehpc::core::read_pgm(path_);
    EXPECT_EQ(img(0, 1), 64.0F);
    EXPECT_EQ(img(1, 1), 255.0F);
}

TEST(Synthetic, DeterministicForSameSeed) {
    const ImageF a = wavehpc::core::landsat_tm_like(32, 32, 9);
    const ImageF b = wavehpc::core::landsat_tm_like(32, 32, 9);
    EXPECT_EQ(a, b);
    const ImageF c = wavehpc::core::landsat_tm_like(32, 32, 10);
    EXPECT_FALSE(a == c);
}

TEST(Synthetic, PixelsStayInByteRange) {
    for (auto band : {wavehpc::core::TmBand::Visible, wavehpc::core::TmBand::NearIr,
                      wavehpc::core::TmBand::Thermal}) {
        const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 3, band);
        for (float v : img.flat()) {
            EXPECT_GE(v, 0.0F);
            EXPECT_LE(v, 255.0F);
        }
    }
}

TEST(Synthetic, SceneHasBroadbandStructure) {
    // Not flat, and with real variance — the statistics the DWT cares about.
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 11);
    double mean = 0.0;
    for (float v : img.flat()) mean += v;
    mean /= static_cast<double>(img.size());
    double var = 0.0;
    for (float v : img.flat()) var += (v - mean) * (v - mean);
    var /= static_cast<double>(img.size());
    EXPECT_GT(var, 100.0);
}

TEST(WaveletWorkCounts, MatchHandComputedValues) {
    const WaveletWork w = WaveletWork::analyze(512, 512, 8, 1);
    EXPECT_EQ(w.outputs(), 2U * 512U * 512U);
    EXPECT_EQ(w.macs(), 8U * 2U * 512U * 512U);
    const WaveletWork w2 = WaveletWork::analyze(512, 512, 4, 2);
    EXPECT_EQ(w2.outputs(), 2U * (512U * 512U + 256U * 256U));
    EXPECT_EQ(w2.per_level.size(), 2U);
}

TEST(SequentialCostModel, FitReproducesParagonTable1Column) {
    const auto& m = SequentialCostModel::paragon_node();
    for (const CalibrationPoint& p : Table1Reference::paragon_1proc) {
        const WaveletWork w = WaveletWork::analyze(512, 512, p.taps, p.levels);
        EXPECT_NEAR(m.seconds(w), p.seconds, 1e-9) << "F" << p.taps << "/L" << p.levels;
    }
    EXPECT_GT(m.per_output(), 0.0);
    EXPECT_GT(m.per_mac(), 0.0);
    EXPECT_GT(m.per_level(), 0.0);
}

TEST(SequentialCostModel, FitReproducesDec5000Table1Column) {
    const auto& m = SequentialCostModel::dec5000();
    for (const CalibrationPoint& p : Table1Reference::dec5000) {
        const WaveletWork w = WaveletWork::analyze(512, 512, p.taps, p.levels);
        EXPECT_NEAR(m.seconds(w), p.seconds, 1e-9);
    }
}

TEST(SequentialCostModel, SingularCalibrationThrows) {
    const std::array<CalibrationPoint, 3> degenerate{
        CalibrationPoint{8, 1, 1.0},
        CalibrationPoint{8, 1, 1.0},
        CalibrationPoint{2, 4, 2.0},
    };
    EXPECT_THROW((void)SequentialCostModel::fit("x", 512, 512, degenerate),
                 std::runtime_error);
}

TEST(StripePartitionTest, CoversAllRowsWithEvenStripes) {
    for (std::size_t parts : {1U, 2U, 3U, 5U, 7U, 16U, 32U}) {
        const StripePartition sp(512, parts);
        std::size_t total = 0;
        for (std::size_t i = 0; i < parts; ++i) {
            EXPECT_EQ(sp.height(i) % 2, 0U);
            EXPECT_GE(sp.height(i), 2U);
            EXPECT_EQ(sp.first_row(i), total);
            total += sp.height(i);
        }
        EXPECT_EQ(total, 512U);
    }
}

TEST(StripePartitionTest, BalancedWithinOneDecimatedRow) {
    const StripePartition sp(100, 7);
    std::size_t mn = 100;
    std::size_t mx = 0;
    for (std::size_t i = 0; i < 7; ++i) {
        mn = std::min(mn, sp.height(i));
        mx = std::max(mx, sp.height(i));
    }
    EXPECT_LE(mx - mn, 2U);
}

TEST(StripePartitionTest, OwnerIsConsistentWithRanges) {
    const StripePartition sp(64, 5);
    for (std::size_t r = 0; r < 64; ++r) {
        const std::size_t o = sp.owner(r);
        EXPECT_GE(r, sp.first_row(o));
        EXPECT_LT(r, sp.end_row(o));
    }
    EXPECT_THROW((void)sp.owner(64), std::out_of_range);
}

TEST(StripePartitionTest, RejectsInvalidRequests) {
    EXPECT_THROW(StripePartition(63, 4), std::invalid_argument);  // odd rows
    EXPECT_THROW(StripePartition(8, 5), std::invalid_argument);   // rows < 2p
    EXPECT_THROW(StripePartition(8, 0), std::invalid_argument);
}

TEST(Placement, NaiveIsRowMajor) {
    EXPECT_EQ(wavehpc::core::place_rank(0, 4, MappingPolicy::Naive), (Coord2{0, 0}));
    EXPECT_EQ(wavehpc::core::place_rank(3, 4, MappingPolicy::Naive), (Coord2{3, 0}));
    EXPECT_EQ(wavehpc::core::place_rank(4, 4, MappingPolicy::Naive), (Coord2{0, 1}));
    EXPECT_EQ(wavehpc::core::place_rank(7, 4, MappingPolicy::Naive), (Coord2{3, 1}));
}

TEST(Placement, SnakeReversesOddRows) {
    EXPECT_EQ(wavehpc::core::place_rank(3, 4, MappingPolicy::Snake), (Coord2{3, 0}));
    EXPECT_EQ(wavehpc::core::place_rank(4, 4, MappingPolicy::Snake), (Coord2{3, 1}));
    EXPECT_EQ(wavehpc::core::place_rank(7, 4, MappingPolicy::Snake), (Coord2{0, 1}));
    EXPECT_EQ(wavehpc::core::place_rank(8, 4, MappingPolicy::Snake), (Coord2{0, 2}));
}

TEST(Placement, SnakeConsecutiveRanksAreMeshNeighbours) {
    // The whole point of figure 4: rank i and i+1 are one hop apart.
    for (std::size_t r = 0; r + 1 < 32; ++r) {
        const Coord2 a = wavehpc::core::place_rank(r, 4, MappingPolicy::Snake);
        const Coord2 b = wavehpc::core::place_rank(r + 1, 4, MappingPolicy::Snake);
        const std::size_t dist = (a.x > b.x ? a.x - b.x : b.x - a.x) +
                                 (a.y > b.y ? a.y - b.y : b.y - a.y);
        EXPECT_EQ(dist, 1U) << "ranks " << r << "," << r + 1;
    }
}

TEST(Placement, NaiveWrapsAcrossMeshRows) {
    // ... whereas the naive mapping separates rank 3 and 4 by a full row.
    const Coord2 a = wavehpc::core::place_rank(3, 4, MappingPolicy::Naive);
    const Coord2 b = wavehpc::core::place_rank(4, 4, MappingPolicy::Naive);
    const std::size_t dist = (a.x > b.x ? a.x - b.x : b.x - a.x) +
                             (a.y > b.y ? a.y - b.y : b.y - a.y);
    EXPECT_EQ(dist, 4U);
}

TEST(Placement, MakePlacementAgreesWithPlaceRank) {
    const auto pl = wavehpc::core::make_placement(12, 4, MappingPolicy::Snake);
    ASSERT_EQ(pl.size(), 12U);
    for (std::size_t r = 0; r < pl.size(); ++r) {
        EXPECT_EQ(pl[r], wavehpc::core::place_rank(r, 4, MappingPolicy::Snake));
    }
}

}  // namespace
