// The functional PE-array simulator: instruction semantics, cycle charging,
// and end-to-end agreement with both the analytic schedule and the
// sequential reference.

#include <gtest/gtest.h>

#include "core/synthetic.hpp"
#include "maspar/simulate.hpp"

namespace {

using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::maspar::Algorithm;
using wavehpc::maspar::CycleModel;
using wavehpc::maspar::MasParProfile;
using wavehpc::maspar::PeArray;
using wavehpc::maspar::Virtualization;

PeArray make_array(Virtualization v = Virtualization::Hierarchical) {
    return {MasParProfile::mp2_16k(), v};
}

TEST(PeArrayTest, MacBroadcastComputesAndCharges) {
    PeArray a = make_array();
    auto acc = PeArray::make_plane(4, 4, 1.0F);
    auto x = PeArray::make_plane(4, 4, 2.0F);
    a.mac_broadcast(acc, x, 3.0F);
    EXPECT_FLOAT_EQ(acc(2, 2), 7.0F);
    EXPECT_DOUBLE_EQ(a.cycles().broadcast, MasParProfile::mp2_16k().cyc_broadcast);
    EXPECT_DOUBLE_EQ(a.cycles().mac, MasParProfile::mp2_16k().cyc_fp_mac);  // 1 layer
}

TEST(PeArrayTest, ShiftWestIsToroidal) {
    PeArray a = make_array();
    auto p = PeArray::make_plane(1, 4);
    for (std::size_t c = 0; c < 4; ++c) p(0, c) = static_cast<float>(c);
    a.shift_west(p, 1);
    EXPECT_FLOAT_EQ(p(0, 0), 1.0F);
    EXPECT_FLOAT_EQ(p(0, 3), 0.0F);  // wrapped
    a.shift_west(p, 0);              // no-op, no cycles added
    const double x = a.cycles().xnet;
    a.shift_west(p, 2);
    EXPECT_GT(a.cycles().xnet, x);
}

TEST(PeArrayTest, ShiftNorthIsToroidal) {
    PeArray a = make_array();
    auto p = PeArray::make_plane(3, 1);
    p(0, 0) = 10.0F;
    p(1, 0) = 20.0F;
    p(2, 0) = 30.0F;
    a.shift_north(p, 1);
    EXPECT_FLOAT_EQ(p(0, 0), 20.0F);
    EXPECT_FLOAT_EQ(p(2, 0), 10.0F);
}

TEST(PeArrayTest, RouterCompactsAndCharges) {
    PeArray a = make_array();
    auto p = PeArray::make_plane(2, 6);
    for (std::size_t c = 0; c < 6; ++c) p(0, c) = static_cast<float>(c);
    const auto even = a.router_compact_cols(p, 0);
    EXPECT_EQ(even.cols(), 3U);
    EXPECT_FLOAT_EQ(even(0, 1), 2.0F);
    const auto odd = a.router_compact_cols(p, 1);
    EXPECT_FLOAT_EQ(odd(0, 1), 3.0F);
    EXPECT_GT(a.cycles().router, 0.0);

    auto q = PeArray::make_plane(4, 2);
    q(2, 1) = 9.0F;
    const auto rows = a.router_compact_rows(q, 0);
    EXPECT_EQ(rows.rows(), 2U);
    EXPECT_FLOAT_EQ(rows(1, 1), 9.0F);
}

TEST(PeArrayTest, InvalidOperandsRejected) {
    PeArray a = make_array();
    auto p = PeArray::make_plane(2, 3);
    auto q = PeArray::make_plane(3, 2);
    EXPECT_THROW(a.mac_broadcast(p, q, 1.0F), std::invalid_argument);
    EXPECT_THROW((void)a.router_compact_cols(p, 0), std::invalid_argument);  // odd width
    auto r = PeArray::make_plane(2, 4);
    EXPECT_THROW((void)a.router_compact_cols(r, 2), std::invalid_argument);
}

struct SimCase {
    int taps;
    int levels;
    Algorithm alg;
    Virtualization virt;
};

void PrintTo(const SimCase& c, std::ostream* os) {
    *os << 'F' << c.taps << 'L' << c.levels << '_'
        << (c.alg == Algorithm::Systolic ? "Systolic" : "SystolicDilution") << '_'
        << (c.virt == Virtualization::CutAndStack ? "CutAndStack" : "Hierarchical");
}

class SimulatedDecompose : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatedDecompose, MatchesSequentialReferenceExactly) {
    const auto [taps, levels, alg, virt] = GetParam();
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 81);
    const FilterPair fp = FilterPair::daubechies(taps);
    const auto reference =
        wavehpc::core::decompose(img, fp, levels, wavehpc::core::BoundaryMode::Periodic);

    const auto res = wavehpc::maspar::simulate_decompose(MasParProfile::mp2_16k(), img,
                                                         fp, levels, alg, virt);
    ASSERT_EQ(res.pyramid.depth(), reference.depth());
    EXPECT_EQ(res.pyramid.approx, reference.approx);
    for (std::size_t k = 0; k < reference.depth(); ++k) {
        EXPECT_EQ(res.pyramid.levels[k].lh, reference.levels[k].lh) << k;
        EXPECT_EQ(res.pyramid.levels[k].hl, reference.levels[k].hl) << k;
        EXPECT_EQ(res.pyramid.levels[k].hh, reference.levels[k].hh) << k;
    }
}

TEST_P(SimulatedDecompose, CycleLedgerMatchesTheAnalyticSchedule) {
    const auto [taps, levels, alg, virt] = GetParam();
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 83);
    const FilterPair fp = FilterPair::daubechies(taps);

    const auto res = wavehpc::maspar::simulate_decompose(MasParProfile::mp2_16k(), img,
                                                         fp, levels, alg, virt);
    const CycleModel model(MasParProfile::mp2_16k());
    const auto schedule = model.total_cost(64, 64, levels, taps, alg, virt);
    EXPECT_NEAR(res.cycles.broadcast, schedule.broadcast, 1e-9);
    EXPECT_NEAR(res.cycles.mac, schedule.mac, 1e-9);
    EXPECT_NEAR(res.cycles.xnet, schedule.xnet, 1e-9);
    EXPECT_NEAR(res.cycles.pe_local, schedule.pe_local, 1e-9);
    EXPECT_NEAR(res.cycles.router, schedule.router, 1e-9);
    EXPECT_NEAR(res.cycles.setup, schedule.setup, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulatedDecompose,
    ::testing::Values(
        SimCase{8, 1, Algorithm::Systolic, Virtualization::Hierarchical},
        SimCase{8, 1, Algorithm::Systolic, Virtualization::CutAndStack},
        SimCase{4, 2, Algorithm::Systolic, Virtualization::Hierarchical},
        SimCase{2, 4, Algorithm::Systolic, Virtualization::CutAndStack},
        SimCase{8, 1, Algorithm::SystolicDilution, Virtualization::Hierarchical},
        SimCase{4, 2, Algorithm::SystolicDilution, Virtualization::CutAndStack},
        SimCase{2, 4, Algorithm::SystolicDilution, Virtualization::Hierarchical},
        SimCase{2, 3, Algorithm::SystolicDilution, Virtualization::CutAndStack}));

TEST(SimulatedDecompose512, AgreesWithScheduleBasedPathOnThePaperScene) {
    // The fast schedule-based path and the instruction-level simulation must
    // tell the same story at the paper's full problem size.
    const ImageF img = wavehpc::core::landsat_tm_like(512, 512, 1996);
    const FilterPair fp = FilterPair::daubechies(8);
    const auto fast = wavehpc::maspar::maspar_decompose(
        MasParProfile::mp2_16k(), img, fp, 1, Algorithm::Systolic,
        Virtualization::Hierarchical);
    const auto slow = wavehpc::maspar::simulate_decompose(
        MasParProfile::mp2_16k(), img, fp, 1, Algorithm::Systolic,
        Virtualization::Hierarchical);
    EXPECT_NEAR(fast.seconds, slow.seconds, 1e-12);
    EXPECT_EQ(fast.pyramid.approx, slow.pyramid.approx);
}

}  // namespace
