// Reconstruction backends (the paper's figure 2): the serial reference
// core::reconstruct, the thread-pool backend, and the distributed mesh
// backend run the same gather-form synthesis bodies, so they must agree
// bit-for-bit in every boundary mode (the conformance matrix,
// test_conformance, widens this to every shape class), invert the
// decomposition, and reject the same malformed pyramids.

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/metrics.hpp"
#include "core/synthetic.hpp"
#include "param_print.hpp"
#include "wavelet/mesh_dwt.hpp"
#include "wavelet/mesh_idwt.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::core::SequentialCostModel;
using wavehpc::mesh::Machine;
using wavehpc::mesh::MachineProfile;

Pyramid sample_pyramid(int taps, int levels, std::size_t rows = 64,
                       std::size_t cols = 64,
                       BoundaryMode mode = BoundaryMode::Periodic) {
    const ImageF img = wavehpc::core::landsat_tm_like(rows, cols, 71);
    return wavehpc::core::decompose(img, FilterPair::daubechies(taps), levels, mode);
}

TEST(GatherReconstruct, IsPerfectReconstruction) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 73);
    for (int taps : {2, 4, 8}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        const Pyramid pyr = wavehpc::core::decompose(img, fp, 2);
        const ImageF back = wavehpc::core::reconstruct(pyr, fp);
        EXPECT_LT(wavehpc::core::max_abs_diff(img, back), 2e-3) << taps;
    }
}

TEST(GatherReconstruct, DeepLevelsWhereBandIsSmallerThanFilter) {
    // 64 -> 4 levels leaves 4x4 bands with an 8-tap filter: the synthesis
    // window wraps more than once.
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 75);
    const FilterPair fp = FilterPair::daubechies(8);
    const Pyramid pyr = wavehpc::core::decompose(img, fp, 4);
    const ImageF back = wavehpc::core::reconstruct(pyr, fp);
    EXPECT_LT(wavehpc::core::max_abs_diff(img, back), 3e-3);
}

TEST(ThreadsReconstruct, BitIdenticalToGatherReference) {
    wavehpc::runtime::ThreadPool pool(3);
    for (int taps : {2, 8}) {
        const Pyramid pyr = sample_pyramid(taps, 3);
        const FilterPair fp = FilterPair::daubechies(taps);
        const ImageF ref = wavehpc::core::reconstruct(pyr, fp);
        const ImageF par = wavehpc::wavelet::reconstruct_parallel(pyr, fp, pool);
        EXPECT_EQ(ref, par) << taps;
    }
}

struct IdwtCase {
    int taps;
    int levels;
    std::size_t nprocs;
    std::size_t rows = 64;
    std::size_t cols = 64;
};

void PrintTo(const IdwtCase& c, std::ostream* os) {
    *os << 'F' << c.taps << 'L' << c.levels << "_P" << c.nprocs << '_' << c.rows << 'x' << c.cols;
}

class MeshReconstruct
    : public ::testing::TestWithParam<std::tuple<IdwtCase, BoundaryMode>> {};

TEST_P(MeshReconstruct, BitIdenticalToGatherReference) {
    const auto [c, mode] = GetParam();
    const Pyramid pyr = sample_pyramid(c.taps, c.levels, c.rows, c.cols, mode);
    const FilterPair fp = FilterPair::daubechies(c.taps);
    const ImageF ref = wavehpc::core::reconstruct(pyr, fp, mode);

    Machine machine(MachineProfile::paragon_pvm());
    wavehpc::wavelet::MeshIdwtConfig cfg;
    cfg.mode = mode;
    const auto res = wavehpc::wavelet::mesh_reconstruct(
        machine, pyr, fp, cfg, c.nprocs, SequentialCostModel::paragon_node());
    EXPECT_EQ(res.image, ref);
    EXPECT_GT(res.seconds, 0.0);
}

// The last two cases are a non-square plane split into uneven stripes, and
// an 8x8 plane whose 1x1 coarsest band is far smaller than the filter.
INSTANTIATE_TEST_SUITE_P(
    Sweep, MeshReconstruct,
    ::testing::Combine(
        ::testing::Values(IdwtCase{8, 1, 1}, IdwtCase{8, 1, 4}, IdwtCase{8, 2, 8},
                          IdwtCase{4, 2, 5}, IdwtCase{2, 4, 4}, IdwtCase{8, 3, 8},
                          IdwtCase{4, 1, 7}, IdwtCase{8, 2, 3, 32, 96},
                          IdwtCase{8, 3, 1, 8, 8}),
        ::testing::Values(BoundaryMode::Periodic, BoundaryMode::Symmetric,
                          BoundaryMode::ZeroPad)));

TEST(MeshReconstructRoundTrip, DistributedAnalysisThenDistributedSynthesis) {
    const ImageF img = wavehpc::core::landsat_tm_like(128, 128, 77);
    const FilterPair fp = FilterPair::daubechies(8);

    Machine m1(MachineProfile::paragon_pvm());
    wavehpc::wavelet::MeshDwtConfig dcfg;
    dcfg.levels = 2;
    dcfg.mode = BoundaryMode::Periodic;
    const auto dec = wavehpc::wavelet::mesh_decompose(
        m1, img, fp, dcfg, 8, SequentialCostModel::paragon_node());

    Machine m2(MachineProfile::paragon_pvm());
    const auto rec = wavehpc::wavelet::mesh_reconstruct(
        m2, dec.pyramid, fp, {}, 8, SequentialCostModel::paragon_node());
    EXPECT_LT(wavehpc::core::max_abs_diff(img, rec.image), 2e-3);
}

TEST(MeshReconstructTiming, ScalesWithProcessors) {
    const Pyramid pyr = sample_pyramid(8, 1, 256, 256);
    const FilterPair fp = FilterPair::daubechies(8);
    const auto time_with = [&](std::size_t p) {
        Machine machine(MachineProfile::paragon_pvm());
        return wavehpc::wavelet::mesh_reconstruct(machine, pyr, fp, {}, p,
                                                  SequentialCostModel::paragon_node())
            .seconds;
    };
    EXPECT_LT(time_with(4), time_with(1));
}

TEST(MeshReconstruct, EmptyPyramidRejected) {
    Machine machine(MachineProfile::paragon_pvm());
    EXPECT_THROW((void)wavehpc::wavelet::mesh_reconstruct(
                     machine, Pyramid{}, FilterPair::daubechies(2), {}, 2,
                     SequentialCostModel::paragon_node()),
                 std::invalid_argument);
}

// Pyramids whose level-1 detail bands do not match the 8x8 approximation
// they pair with: a short lh and a narrow hh. Every backend must reject
// them before it reads a band row past the end of the malformed band.
std::vector<Pyramid> malformed_pyramids() {
    const Pyramid good = sample_pyramid(4, 2, 32, 32);
    Pyramid short_lh = good;
    short_lh.levels[1].lh = ImageF(4, 8);
    Pyramid narrow_hh = good;
    narrow_hh.levels[1].hh = ImageF(8, 4);
    return {short_lh, narrow_hh};
}

TEST(MalformedPyramid, SerialReconstructRejects) {
    for (const Pyramid& bad : malformed_pyramids()) {
        EXPECT_THROW((void)wavehpc::core::reconstruct(bad, FilterPair::daubechies(4)),
                     std::invalid_argument);
    }
}

TEST(MalformedPyramid, ThreadedReconstructRejects) {
    wavehpc::runtime::ThreadPool pool(2);
    for (const Pyramid& bad : malformed_pyramids()) {
        EXPECT_THROW((void)wavehpc::wavelet::reconstruct_parallel(
                         bad, FilterPair::daubechies(4), pool),
                     std::invalid_argument);
    }
}

TEST(MalformedPyramid, MeshReconstructRejects) {
    for (const Pyramid& bad : malformed_pyramids()) {
        for (const std::size_t nprocs : {1U, 2U}) {
            Machine machine(MachineProfile::paragon_pvm());
            EXPECT_THROW((void)wavehpc::wavelet::mesh_reconstruct(
                             machine, bad, FilterPair::daubechies(4), {}, nprocs,
                             SequentialCostModel::paragon_node()),
                         std::invalid_argument)
                << nprocs << " ranks";
        }
    }
}

TEST(SynthesisGuardRows, CoversTheSupportAndWraps) {
    // Output rows 0..3 with an 8-tap filter over 16 coefficient rows: needs
    // rows 0, 1 and the wrap rows 13, 14, 15.
    const auto needed = wavehpc::wavelet::detail::synthesis_rows_needed(0, 4, 16, 8);
    EXPECT_TRUE(std::find(needed.begin(), needed.end(), 0U) != needed.end());
    EXPECT_TRUE(std::find(needed.begin(), needed.end(), 15U) != needed.end());
    for (std::size_t g : needed) EXPECT_LT(g, 16U);
    // Interior rows: no wrap, contiguous window.
    const auto mid = wavehpc::wavelet::detail::synthesis_rows_needed(16, 4, 16, 4);
    EXPECT_EQ(mid.front(), 7U);  // (16 - 3 + 32) % 32 / 2
    EXPECT_EQ(mid.back(), 9U);
}

}  // namespace
