// The block (2-D) domain decomposition must also reproduce the sequential
// pyramid exactly, and must cost two guard exchanges per level where the
// stripe decomposition costs one (the paper's figure 3 rationale).

#include <gtest/gtest.h>

#include "core/synthetic.hpp"
#include "param_print.hpp"
#include "wavelet/mesh_dwt.hpp"
#include "wavelet/mesh_dwt_block.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::core::SequentialCostModel;
using wavehpc::mesh::Machine;
using wavehpc::mesh::MachineProfile;
using wavehpc::wavelet::BlockDwtConfig;

void expect_identical(const Pyramid& a, const Pyramid& b) {
    ASSERT_EQ(a.depth(), b.depth());
    for (std::size_t k = 0; k < a.depth(); ++k) {
        EXPECT_EQ(a.levels[k].lh, b.levels[k].lh) << "lh level " << k;
        EXPECT_EQ(a.levels[k].hl, b.levels[k].hl) << "hl level " << k;
        EXPECT_EQ(a.levels[k].hh, b.levels[k].hh) << "hh level " << k;
    }
    EXPECT_EQ(a.approx, b.approx);
}

struct BlockCase {
    int taps;
    int levels;
    std::size_t grid_rows;
    std::size_t grid_cols;
    BoundaryMode mode;
};

void PrintTo(const BlockCase& c, std::ostream* os) {
    *os << 'F' << c.taps << 'L' << c.levels << '_' << c.grid_rows << 'x' << c.grid_cols << '_';
    PrintTo(c.mode, os);
}

class BlockDwtMatchesSequential : public ::testing::TestWithParam<BlockCase> {};

TEST_P(BlockDwtMatchesSequential, BitIdenticalCoefficients) {
    const auto [taps, levels, gr, gc, mode] = GetParam();
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 61);
    const FilterPair fp = FilterPair::daubechies(taps);
    const Pyramid reference = wavehpc::core::decompose(img, fp, levels, mode);

    Machine machine(MachineProfile::paragon_pvm());
    BlockDwtConfig cfg;
    cfg.levels = levels;
    cfg.mode = mode;
    cfg.grid_rows = gr;
    cfg.grid_cols = gc;
    const auto res = wavehpc::wavelet::block_decompose(
        machine, img, fp, cfg, SequentialCostModel::paragon_node());
    expect_identical(res.pyramid, reference);
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, BlockDwtMatchesSequential,
    ::testing::Values(BlockCase{8, 1, 2, 2, BoundaryMode::Symmetric},
                      BlockCase{8, 1, 4, 4, BoundaryMode::Symmetric},
                      BlockCase{4, 2, 2, 4, BoundaryMode::Symmetric},
                      BlockCase{4, 2, 4, 2, BoundaryMode::Periodic},
                      BlockCase{2, 4, 2, 2, BoundaryMode::Periodic},
                      BlockCase{8, 1, 1, 4, BoundaryMode::ZeroPad},
                      BlockCase{8, 1, 4, 1, BoundaryMode::Symmetric},
                      BlockCase{4, 1, 3, 2, BoundaryMode::Periodic},
                      BlockCase{8, 2, 1, 1, BoundaryMode::Symmetric}));

TEST(BlockDwt, UsesMoreGuardMessagesThanStripes) {
    const ImageF img = wavehpc::core::landsat_tm_like(128, 128, 67);
    const FilterPair fp = FilterPair::daubechies(8);

    Machine m1(MachineProfile::paragon_pvm());
    wavehpc::wavelet::MeshDwtConfig stripe_cfg;
    stripe_cfg.levels = 2;
    stripe_cfg.scatter_gather = false;
    const auto stripes = wavehpc::wavelet::mesh_decompose(
        m1, img, fp, stripe_cfg, 4, SequentialCostModel::paragon_node());

    Machine m2(MachineProfile::paragon_pvm());
    BlockDwtConfig block_cfg;
    block_cfg.levels = 2;
    block_cfg.grid_rows = 2;
    block_cfg.grid_cols = 2;
    block_cfg.scatter_gather = false;
    const auto blocks = wavehpc::wavelet::block_decompose(
        m2, img, fp, block_cfg, SequentialCostModel::paragon_node());

    // Same answer on rank 0's common region (without gather only rank 0's
    // own output is assembled), roughly double the guard transactions.
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) {
            EXPECT_EQ(blocks.pyramid.approx(r, c), stripes.pyramid.approx(r, c));
        }
    }
    EXPECT_GT(blocks.run.messages, stripes.run.messages);
}

TEST(BlockDwt, RejectsGridExceedingMesh) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 3);
    Machine machine(MachineProfile::paragon_pvm());  // mesh is 4 wide
    BlockDwtConfig cfg;
    cfg.grid_rows = 2;
    cfg.grid_cols = 8;
    EXPECT_THROW((void)wavehpc::wavelet::block_decompose(
                     machine, img, FilterPair::daubechies(2), cfg,
                     SequentialCostModel::paragon_node()),
                 std::invalid_argument);
}

TEST(BlockDwt, WithoutScatterGatherDecomposesRankZeroTile) {
    const ImageF img = wavehpc::core::landsat_tm_like(32, 32, 9);
    const FilterPair fp = FilterPair::daubechies(4);
    Machine machine(MachineProfile::paragon_pvm());
    BlockDwtConfig cfg;
    cfg.levels = 1;
    cfg.grid_rows = 2;
    cfg.grid_cols = 2;
    cfg.scatter_gather = false;
    const auto res = wavehpc::wavelet::block_decompose(
        machine, img, fp, cfg, SequentialCostModel::paragon_node());
    const Pyramid reference = wavehpc::core::decompose(img, fp, 1, cfg.mode);
    for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t c = 0; c < 8; ++c) {
            EXPECT_EQ(res.pyramid.levels[0].hh(r, c), reference.levels[0].hh(r, c));
        }
    }
}

}  // namespace
