// Mesh and thread-pool decompositions: the paper's configurations must
// produce exactly the coefficients of the sequential reference (the
// conformance matrix, test_conformance, widens this to every backend and
// shape class), plus partial assembly, rank limits, placement contention,
// speedup, guard rows, and a decomposition driven from inside a pool
// worker.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/metrics.hpp"
#include "core/synthetic.hpp"
#include "mesh/machine.hpp"
#include "param_print.hpp"
#include "testing/invariants.hpp"
#include "wavelet/mesh_dwt.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::MappingPolicy;
using wavehpc::core::Pyramid;
using wavehpc::core::SequentialCostModel;
using wavehpc::mesh::Machine;
using wavehpc::mesh::MachineProfile;
using wavehpc::testing::pyramids_bit_identical;
using wavehpc::wavelet::MeshDwtConfig;

struct MeshCase {
    int taps;
    int levels;
    std::size_t nprocs;
    BoundaryMode mode;
};

void PrintTo(const MeshCase& c, std::ostream* os) {
    *os << 'F' << c.taps << 'L' << c.levels << "_P" << c.nprocs << '_';
    PrintTo(c.mode, os);
}

class MeshDwtMatchesSequential : public ::testing::TestWithParam<MeshCase> {};

TEST_P(MeshDwtMatchesSequential, BitIdenticalCoefficients) {
    const auto [taps, levels, nprocs, mode] = GetParam();
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 17);
    const FilterPair fp = FilterPair::daubechies(taps);

    const Pyramid reference = wavehpc::core::decompose(img, fp, levels, mode);

    Machine machine(MachineProfile::paragon_pvm());
    MeshDwtConfig cfg;
    cfg.levels = levels;
    cfg.mode = mode;
    cfg.mapping = MappingPolicy::Snake;
    const auto res = wavehpc::wavelet::mesh_decompose(
        machine, img, fp, cfg, nprocs, SequentialCostModel::paragon_node());
    EXPECT_TRUE(pyramids_bit_identical(res.pyramid, reference));
    EXPECT_GT(res.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, MeshDwtMatchesSequential,
    ::testing::Values(
        // The paper's three configurations at several machine sizes.
        MeshCase{8, 1, 1, BoundaryMode::Symmetric},
        MeshCase{8, 1, 2, BoundaryMode::Symmetric},
        MeshCase{8, 1, 4, BoundaryMode::Symmetric},
        MeshCase{8, 1, 8, BoundaryMode::Symmetric},
        MeshCase{4, 2, 4, BoundaryMode::Symmetric},
        MeshCase{4, 2, 8, BoundaryMode::Symmetric},
        MeshCase{2, 4, 4, BoundaryMode::Symmetric},
        // Periodic adds the wrap-around guard message (last rank -> rank 0).
        MeshCase{8, 1, 4, BoundaryMode::Periodic},
        MeshCase{4, 2, 8, BoundaryMode::Periodic},
        MeshCase{2, 4, 4, BoundaryMode::Periodic},
        // ZeroPad exercises the "missing row" guard path.
        MeshCase{8, 1, 4, BoundaryMode::ZeroPad},
        MeshCase{4, 2, 3, BoundaryMode::ZeroPad},
        // Uneven stripe heights.
        MeshCase{4, 2, 5, BoundaryMode::Symmetric},
        MeshCase{8, 1, 7, BoundaryMode::Periodic}));

TEST(MeshDwt, GuardZoneSpansMultipleNorthStripes) {
    // 8 taps -> 6 guard rows; at the deepest level stripes are 2 rows tall,
    // so the guard zone must be assembled from three different owners.
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 23);
    const FilterPair fp = FilterPair::daubechies(8);
    const Pyramid reference =
        wavehpc::core::decompose(img, fp, 2, BoundaryMode::Periodic);

    Machine machine(MachineProfile::paragon_pvm());
    MeshDwtConfig cfg;
    cfg.levels = 2;
    cfg.mode = BoundaryMode::Periodic;
    const auto res = wavehpc::wavelet::mesh_decompose(
        machine, img, fp, cfg, 8, SequentialCostModel::paragon_node());
    EXPECT_TRUE(pyramids_bit_identical(res.pyramid, reference));
}

TEST(MeshDwt, WithoutScatterGatherStillDecomposesRankZeroStripe) {
    const ImageF img = wavehpc::core::landsat_tm_like(32, 32, 3);
    const FilterPair fp = FilterPair::daubechies(4);
    Machine machine(MachineProfile::paragon_pvm());
    MeshDwtConfig cfg;
    cfg.levels = 1;
    cfg.scatter_gather = false;
    const auto res = wavehpc::wavelet::mesh_decompose(
        machine, img, fp, cfg, 4, SequentialCostModel::paragon_node());
    const Pyramid reference = wavehpc::core::decompose(img, fp, 1, cfg.mode);
    // Only rank 0's stripe (rows 0..7 -> output rows 0..3) is assembled.
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 16; ++c) {
            EXPECT_EQ(res.pyramid.levels[0].hh(r, c), reference.levels[0].hh(r, c));
        }
    }
}

TEST(MeshDwt, RejectsTooManyRanks) {
    const ImageF img = wavehpc::core::landsat_tm_like(32, 32, 3);
    const FilterPair fp = FilterPair::daubechies(2);
    Machine machine(MachineProfile::paragon_pvm());
    MeshDwtConfig cfg;
    cfg.levels = 4;  // coarsest level has 2 rows; granularity 16
    EXPECT_THROW((void)wavehpc::wavelet::mesh_decompose(
                     machine, img, fp, cfg, 3, SequentialCostModel::paragon_node()),
                 std::invalid_argument);
}

TEST(MeshDwt, NaiveMappingSuffersMoreContentionThanSnake) {
    // Figure 5's story: beyond one mesh row (4 nodes wide), the naive
    // row-major mapping routes guard messages across whole rows and they
    // collide; the snake mapping keeps every exchange at distance one.
    // scatter_gather off isolates the guard-zone traffic, which is the part
    // the mapping policy affects.
    const ImageF img = wavehpc::core::landsat_tm_like(128, 128, 29);
    const FilterPair fp = FilterPair::daubechies(8);

    const auto run_with = [&](MappingPolicy mapping) {
        Machine machine(MachineProfile::paragon_pvm());
        MeshDwtConfig cfg;
        cfg.levels = 1;
        cfg.mapping = mapping;
        cfg.scatter_gather = false;
        return wavehpc::wavelet::mesh_decompose(machine, img, fp, cfg, 16,
                                                SequentialCostModel::paragon_node());
    };
    const auto naive = run_with(MappingPolicy::Naive);
    const auto snake = run_with(MappingPolicy::Snake);
    // Snake neighbours are one hop apart on disjoint links: no conflicts.
    EXPECT_DOUBLE_EQ(snake.run.contention_delay, 0.0);
    // Naive wrap messages cross a whole mesh row and collide with the
    // in-row guard traffic.
    EXPECT_GT(naive.run.contention_delay, 0.0);
}

TEST(MeshDwt, ParallelRunBeatsSingleNode) {
    const ImageF img = wavehpc::core::landsat_tm_like(256, 256, 31);
    const FilterPair fp = FilterPair::daubechies(8);
    const auto time_with = [&](std::size_t p) {
        Machine machine(MachineProfile::paragon_pvm());
        MeshDwtConfig cfg;
        cfg.levels = 1;
        return wavehpc::wavelet::mesh_decompose(machine, img, fp, cfg, p,
                                                SequentialCostModel::paragon_node())
            .seconds;
    };
    const double t1 = time_with(1);
    const double t4 = time_with(4);
    EXPECT_LT(t4, t1);
    EXPECT_GT(t4, t1 / 4.0);  // communication keeps it sublinear
}

TEST(MeshDwt, StatsShowRedundancyOnlyWhenGuardZonesExist) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 37);
    Machine machine(MachineProfile::paragon_pvm());
    MeshDwtConfig cfg;
    cfg.levels = 1;

    // Haar (2 taps) needs no guard rows at all -> zero redundancy.
    const auto haar = wavehpc::wavelet::mesh_decompose(
        machine, img, FilterPair::daubechies(2), cfg, 4,
        SequentialCostModel::paragon_node());
    for (const auto& st : haar.run.stats) EXPECT_DOUBLE_EQ(st.redundant_seconds, 0.0);

    const auto d8 = wavehpc::wavelet::mesh_decompose(
        machine, img, FilterPair::daubechies(8), cfg, 4,
        SequentialCostModel::paragon_node());
    for (std::size_t r = 0; r + 1 < d8.run.stats.size(); ++r) {
        EXPECT_GT(d8.run.stats[r].redundant_seconds, 0.0) << "rank " << r;
    }
}

TEST(ThreadsDwt, BitIdenticalToSequentialReference) {
    const ImageF img = wavehpc::core::landsat_tm_like(128, 96, 41);
    wavehpc::runtime::ThreadPool pool(3);
    for (int taps : {2, 4, 8}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (auto mode : {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                          BoundaryMode::ZeroPad}) {
            const Pyramid seq = wavehpc::core::decompose(img, fp, 2, mode);
            const Pyramid par =
                wavehpc::wavelet::decompose_parallel(img, fp, 2, mode, pool);
            EXPECT_TRUE(pyramids_bit_identical(par, seq)) << taps << " mode " << int(mode);
        }
    }
}

TEST(ThreadsDwt, ReconstructionRoundTripsThroughParallelAnalysis) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 43);
    const FilterPair fp = FilterPair::daubechies(4);
    wavehpc::runtime::ThreadPool pool(2);
    const Pyramid pyr = wavehpc::wavelet::decompose_parallel(
        img, fp, 3, BoundaryMode::Periodic, pool);
    const ImageF back = wavehpc::core::reconstruct(pyr, fp);
    EXPECT_LT(wavehpc::core::max_abs_diff(img, back), 2e-3);
}

// Pool-size sweep: the fused threaded kernels must stay bit-identical to
// the serial decompose/reconstruct references for every boundary mode at
// pool sizes 1, 2 and hardware_concurrency. The 8-tap filter on a 64-row
// image drives extend_index past the edge at every level, so ZeroPad
// exercises the "missing row" sentinel in the fused column sweep.
class ThreadsDwtPoolSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadsDwtPoolSweep, DecomposeMatchesSerialForAllModes) {
    wavehpc::runtime::ThreadPool pool(GetParam());
    const ImageF img = wavehpc::core::landsat_tm_like(64, 96, 47);
    for (int taps : {2, 4, 8}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        for (auto mode : {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                          BoundaryMode::ZeroPad}) {
            const Pyramid seq = wavehpc::core::decompose(img, fp, 3, mode);
            const Pyramid par =
                wavehpc::wavelet::decompose_parallel(img, fp, 3, mode, pool);
            EXPECT_TRUE(pyramids_bit_identical(par, seq)) << taps << " mode " << int(mode);
        }
    }
}

// One level on its own: the four bands of the serial one-level
// decomposition (paper steps 1-4).
TEST_P(ThreadsDwtPoolSweep, SingleLevelMatchesDecomposeLevel) {
    wavehpc::runtime::ThreadPool pool(GetParam());
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 51);
    const FilterPair fp = FilterPair::daubechies(8);
    for (auto mode : {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                      BoundaryMode::ZeroPad}) {
        const Pyramid one = wavehpc::core::decompose(img, fp, 1, mode);
        const Pyramid par =
            wavehpc::wavelet::decompose_parallel(img, fp, 1, mode, pool);
        ASSERT_EQ(par.depth(), 1U);
        EXPECT_EQ(par.approx, one.approx);
        EXPECT_EQ(par.levels[0].lh, one.levels[0].lh);
        EXPECT_EQ(par.levels[0].hl, one.levels[0].hl);
        EXPECT_EQ(par.levels[0].hh, one.levels[0].hh);
    }
}

// Every boundary mode, on a square plane, a non-square one, and an 8x8
// plane at 3 levels whose 1x1 coarsest band is far smaller than the 8-tap
// filter.
TEST_P(ThreadsDwtPoolSweep, ReconstructMatchesSerialGatherReference) {
    wavehpc::runtime::ThreadPool pool(GetParam());
    struct Shape {
        std::size_t rows;
        std::size_t cols;
        int levels;
    };
    for (const Shape s : {Shape{64, 64, 2}, Shape{32, 96, 2}, Shape{8, 8, 3}}) {
        const ImageF img = wavehpc::core::landsat_tm_like(s.rows, s.cols, 53);
        for (int taps : {2, 4, 8}) {
            const FilterPair fp = FilterPair::daubechies(taps);
            for (auto mode : {BoundaryMode::Periodic, BoundaryMode::Symmetric,
                              BoundaryMode::ZeroPad}) {
                const Pyramid pyr = wavehpc::core::decompose(img, fp, s.levels, mode);
                const ImageF serial = wavehpc::core::reconstruct(pyr, fp, mode);
                const ImageF par =
                    wavehpc::wavelet::reconstruct_parallel(pyr, fp, pool, mode);
                EXPECT_EQ(par, serial) << s.rows << "x" << s.cols << " taps " << taps
                                       << " mode " << int(mode);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PoolSizes, ThreadsDwtPoolSweep,
    ::testing::Values(std::size_t{1}, std::size_t{2},
                      std::max<std::size_t>(1, std::thread::hardware_concurrency())));

// Each level is one pool dispatch: one parallel_for over the level's
// output rows, or over the (member, output row) cells of a batch, whatever
// the filter and depth.
TEST(ThreadsDwt, EachLevelIsOnePoolDispatch) {
    wavehpc::runtime::ThreadPool pool(3);
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 61);
    const std::vector<const ImageF*> batch = {&img, &img, &img};
    for (const auto& [taps, levels] : {std::pair{8, 1}, {4, 2}, {2, 4}}) {
        const FilterPair fp = FilterPair::daubechies(taps);
        const auto groups = [&pool] { return pool.metrics().groups_completed; };
        const auto before = groups();
        (void)wavehpc::wavelet::decompose_parallel(img, fp, levels, BoundaryMode::Periodic,
                                                   pool);
        EXPECT_EQ(groups() - before, static_cast<std::uint64_t>(levels))
            << "decompose_parallel F" << taps << "L" << levels;
        const auto mid = groups();
        (void)wavehpc::wavelet::decompose_batch(batch, fp, levels, BoundaryMode::Periodic,
                                                &pool);
        EXPECT_EQ(groups() - mid, static_cast<std::uint64_t>(levels))
            << "decompose_batch F" << taps << "L" << levels;
    }
}

// Regression for the seed deadlock: decompositions driven from inside a
// worker of the same pool (nested parallel_for) must complete and match.
TEST(ThreadsDwt, DecomposeFromInsideWorkerMatchesSerial) {
    wavehpc::runtime::ThreadPool pool(2);
    const ImageF img = wavehpc::core::landsat_tm_like(32, 32, 59);
    const FilterPair fp = FilterPair::daubechies(4);
    const Pyramid seq = wavehpc::core::decompose(img, fp, 1, BoundaryMode::Periodic);
    Pyramid par;
    wavehpc::runtime::ScopedTaskGroup group(pool);
    group.submit([&] {
        // Runs on a worker thread; the nested parallel_for joins by helping.
        par = wavehpc::wavelet::decompose_parallel(img, fp, 1,
                                                   BoundaryMode::Periodic, pool);
    });
    group.wait();
    EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(par, seq));
}

TEST(MeshDwtDetail, LevelRangeHalvesExactly) {
    const wavehpc::core::StripePartition part(64, 5, 4);
    for (std::size_t r = 0; r < 5; ++r) {
        const auto l0 = wavehpc::wavelet::detail::level_range(part, r, 0);
        const auto l1 = wavehpc::wavelet::detail::level_range(part, r, 1);
        EXPECT_EQ(l1.first, l0.first / 2);
        EXPECT_EQ(l1.count, l0.count / 2);
    }
}

TEST(MeshDwtDetail, GuardRowsRespectBoundaryModes) {
    const wavehpc::core::StripePartition part(32, 4, 2);  // stripes of 8
    // Last rank, 4-tap filter: needs rows 32, 33.
    const auto per = wavehpc::wavelet::detail::guard_rows(
        part, 3, 0, 4, 32, BoundaryMode::Periodic);
    ASSERT_EQ(per.size(), 2U);
    EXPECT_EQ(per[0], 0U);
    EXPECT_EQ(per[1], 1U);
    const auto sym = wavehpc::wavelet::detail::guard_rows(
        part, 3, 0, 4, 32, BoundaryMode::Symmetric);
    EXPECT_EQ(sym[0], 31U);
    EXPECT_EQ(sym[1], 30U);
    const auto zero = wavehpc::wavelet::detail::guard_rows(
        part, 3, 0, 4, 32, BoundaryMode::ZeroPad);
    EXPECT_EQ(zero[0], wavehpc::wavelet::detail::kNotARow);
    // Interior rank: plain south rows.
    const auto mid = wavehpc::wavelet::detail::guard_rows(
        part, 1, 0, 4, 32, BoundaryMode::Periodic);
    EXPECT_EQ(mid[0], 16U);
    EXPECT_EQ(mid[1], 17U);
}

}  // namespace
