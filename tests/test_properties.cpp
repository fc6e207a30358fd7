// Cross-module parameterized property sweeps: invariants that must hold
// over broad input ranges rather than hand-picked cases.

#include <gtest/gtest.h>

#include <set>

#include "core/dwt.hpp"
#include "core/metrics.hpp"
#include "core/stripe.hpp"
#include "core/synthetic.hpp"
#include "mesh/collectives.hpp"
#include "mesh/machine.hpp"
#include "sim/engine.hpp"

namespace {

using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::mesh::Coord3;
using wavehpc::mesh::Machine;
using wavehpc::mesh::MachineProfile;
using wavehpc::mesh::NodeCtx;
using wavehpc::mesh::Topology;

// ------------------------------------------------------------- DWT shapes

struct ShapeCase {
    std::size_t rows;
    std::size_t cols;
    int taps;
    int levels;
};

void PrintTo(const ShapeCase& c, std::ostream* os) {
    *os << c.rows << 'x' << c.cols << "_F" << c.taps << 'L' << c.levels;
}

class DwtShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(DwtShapeSweep, PerfectReconstructionAndEnergyOnOddShapes) {
    const auto [rows, cols, taps, levels] = GetParam();
    const ImageF img = wavehpc::core::landsat_tm_like(rows, cols, rows * 131 + cols);
    const FilterPair fp = FilterPair::daubechies(taps);
    const auto pyr = wavehpc::core::decompose(img, fp, levels);
    const ImageF back = wavehpc::core::reconstruct(pyr, fp);
    EXPECT_LT(wavehpc::core::max_abs_diff(img, back), 3e-3);

    double coeff = wavehpc::core::energy(pyr.approx);
    for (const auto& d : pyr.levels) {
        coeff += wavehpc::core::energy(d.lh) + wavehpc::core::energy(d.hl) +
                 wavehpc::core::energy(d.hh);
    }
    EXPECT_NEAR(coeff / wavehpc::core::energy(img), 1.0, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DwtShapeSweep,
    ::testing::Values(ShapeCase{8, 8, 2, 1}, ShapeCase{16, 64, 4, 2},
                      ShapeCase{96, 32, 8, 3}, ShapeCase{40, 56, 4, 1},
                      ShapeCase{24, 24, 6, 2}, ShapeCase{128, 16, 2, 3},
                      ShapeCase{12, 20, 8, 1}, ShapeCase{64, 192, 6, 4}));

// -------------------------------------------------------- routing sweeps

class TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweep, EveryRouteIsWellFormed) {
    const int seed = GetParam();
    const bool torus = (seed % 2) == 0;
    const Topology t(3 + seed % 5, 2 + seed % 7, 1 + seed % 3, torus, torus, torus);
    const std::size_t n = t.nodes();
    for (std::size_t a = 0; a < n; a += 1 + seed % 3) {
        for (std::size_t b = 0; b < n; b += 2 + seed % 2) {
            if (a == b) continue;
            const auto path = t.route(t.coord(a), t.coord(b));
            // injection + hops + ejection, all within range, all distinct.
            ASSERT_EQ(path.size(), t.hops(t.coord(a), t.coord(b)) + 2);
            EXPECT_EQ(path.front(), t.injection_link(a));
            EXPECT_EQ(path.back(), t.ejection_link(b));
            std::set<std::size_t> uniq(path.begin(), path.end());
            EXPECT_EQ(uniq.size(), path.size());
            for (std::size_t l : path) EXPECT_LT(l, t.link_count());
        }
    }
}

TEST_P(TopologySweep, HopCountIsSymmetric) {
    const int seed = GetParam();
    const Topology t(4, 4, 2, seed % 2 == 0, seed % 3 == 0, false);
    for (std::size_t a = 0; a < t.nodes(); a += 3) {
        for (std::size_t b = a + 1; b < t.nodes(); b += 5) {
            EXPECT_EQ(t.hops(t.coord(a), t.coord(b)), t.hops(t.coord(b), t.coord(a)));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologySweep, ::testing::Range(0, 6));

// ------------------------------------------------- collectives vs serial

class GsumSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GsumSweep, VectorSumsMatchSerialReduction) {
    const std::size_t p = GetParam();
    constexpr std::size_t kLen = 37;
    Machine m(MachineProfile::test_profile(4, 8));
    std::vector<std::vector<double>> results(p);
    m.run(p, [&](NodeCtx& ctx) {
        std::vector<double> v(kLen);
        for (std::size_t i = 0; i < kLen; ++i) {
            v[i] = static_cast<double>((ctx.rank() + 1) * (i + 1));
        }
        wavehpc::mesh::gsum_prefix(ctx, v);
        results[static_cast<std::size_t>(ctx.rank())] = v;
    });
    const double ranks_sum = static_cast<double>(p * (p + 1)) / 2.0;
    for (const auto& v : results) {
        ASSERT_EQ(v.size(), kLen);
        for (std::size_t i = 0; i < kLen; ++i) {
            EXPECT_NEAR(v[i], ranks_sum * static_cast<double>(i + 1), 1e-9);
        }
    }
}

TEST_P(GsumSweep, GmaxFindsTheGlobalMaximum) {
    const std::size_t p = GetParam();
    Machine m(MachineProfile::test_profile(4, 8));
    std::vector<double> results(p);
    m.run(p, [&](NodeCtx& ctx) {
        // Peak at a rank in the middle.
        const double mine = -std::abs(static_cast<double>(ctx.rank()) -
                                      static_cast<double>(p) / 3.0);
        results[static_cast<std::size_t>(ctx.rank())] =
            wavehpc::mesh::gmax_prefix(ctx, mine);
    });
    double expected = -1e300;
    for (std::size_t r = 0; r < p; ++r) {
        expected = std::max(expected, -std::abs(static_cast<double>(r) -
                                                static_cast<double>(p) / 3.0));
    }
    for (double v : results) EXPECT_DOUBLE_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, GsumSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 32));

// --------------------------------------------------- partition granularity

class GranularitySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(GranularitySweep, HeightsAreGranularAndBalanced) {
    const auto [parts, log2g] = GetParam();
    const std::size_t g = std::size_t{1} << log2g;
    const std::size_t rows = 512;
    if (rows < g * parts) GTEST_SKIP();
    const wavehpc::core::StripePartition sp(rows, parts, g);
    std::size_t total = 0;
    std::size_t mn = rows;
    std::size_t mx = 0;
    for (std::size_t i = 0; i < parts; ++i) {
        EXPECT_EQ(sp.height(i) % g, 0U);
        total += sp.height(i);
        mn = std::min(mn, sp.height(i));
        mx = std::max(mx, sp.height(i));
    }
    EXPECT_EQ(total, rows);
    EXPECT_LE(mx - mn, g);
}

INSTANTIATE_TEST_SUITE_P(
    PartsAndGranularity, GranularitySweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 4, 7, 16, 32),
                       ::testing::Values<std::size_t>(1, 2, 3, 4)));

// ------------------------------------------------------ engine stress run

TEST(EngineStress, ManyProcessesManyEventsStayDeterministic) {
    const auto run_once = [] {
        wavehpc::sim::Engine engine;
        std::vector<double> finish(40);
        for (std::size_t i = 0; i < 40; ++i) {
            engine.add_process("p" + std::to_string(i), [&finish, i](wavehpc::sim::Proc& p) {
                std::uint64_t state = i + 1;
                for (int k = 0; k < 200; ++k) {
                    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
                    p.advance(static_cast<double>(state % 997) * 1e-6);
                }
                finish[i] = p.now();
            });
        }
        engine.run();
        return finish;
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b);
    for (double t : a) EXPECT_GT(t, 0.0);
}

TEST(MachineStress, RandomizedMessagePatternDeliversEverything) {
    constexpr std::size_t kP = 12;
    Machine m(MachineProfile::test_profile(4, 4));
    std::vector<int> received(kP, 0);
    m.run(kP, [&](NodeCtx& ctx) {
        const auto me = static_cast<std::size_t>(ctx.rank());
        // Every rank sends one message to every other rank, then receives
        // p-1 messages from anyone.
        for (std::size_t j = 0; j < kP; ++j) {
            if (j == me) continue;
            ctx.send_value<int>(5, static_cast<int>(j), static_cast<int>(me));
        }
        for (std::size_t j = 0; j + 1 < kP; ++j) {
            (void)ctx.recv_value<int>(5);
            ++received[me];
        }
    });
    for (int r : received) EXPECT_EQ(r, static_cast<int>(kP) - 1);
}

}  // namespace
