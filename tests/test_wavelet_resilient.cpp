// Resilient mesh decomposition: bit-identical coefficients fault-free,
// under message drops, and across fail-stop recovery with re-striping (the
// conformance matrix, test_conformance, widens the fault-free runs to every
// shape class).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/synthetic.hpp"
#include "mesh/machine.hpp"
#include "perf/budget.hpp"
#include "testing/invariants.hpp"
#include "wavelet/mesh_dwt.hpp"
#include "wavelet/mesh_dwt_resilient.hpp"

namespace {

using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::core::SequentialCostModel;
using wavehpc::mesh::FaultPlan;
using wavehpc::mesh::Machine;
using wavehpc::mesh::MachineProfile;
using wavehpc::wavelet::ResilientDwtConfig;

Pyramid plain_reference(const ImageF& img, const FilterPair& fp, int levels) {
    Machine machine(MachineProfile::paragon_pvm());
    wavehpc::wavelet::MeshDwtConfig cfg;
    cfg.levels = levels;
    const auto res = wavehpc::wavelet::mesh_decompose(
        machine, img, fp, cfg, 4, SequentialCostModel::paragon_node());
    return res.pyramid;
}

TEST(ResilientDwt, FaultFreeRunMatchesPlainDecomposition) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 17);
    const FilterPair fp = FilterPair::daubechies(4);
    const Pyramid reference = plain_reference(img, fp, 2);

    for (std::size_t p : {1U, 2U, 4U, 8U}) {
        Machine machine(MachineProfile::paragon_pvm());
        ResilientDwtConfig cfg;
        cfg.levels = 2;
        const auto res = wavehpc::wavelet::mesh_decompose_resilient(
            machine, img, fp, cfg, p, SequentialCostModel::paragon_node());
        EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(res.pyramid, reference)) << p;
        EXPECT_EQ(res.level_retries, 0U);
        EXPECT_TRUE(res.failed_ranks.empty());
    }
}

TEST(ResilientDwt, BitIdenticalUnderMessageDrops) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 17);
    const FilterPair fp = FilterPair::daubechies(8);
    const Pyramid reference = plain_reference(img, fp, 1);

    Machine machine(MachineProfile::paragon_pvm());
    ResilientDwtConfig cfg;
    cfg.levels = 1;
    const auto clean = wavehpc::wavelet::mesh_decompose_resilient(
        machine, img, fp, cfg, 4, SequentialCostModel::paragon_node());

    // Size the drop probability from the clean run's frame count so a
    // handful of drops are statistically certain regardless of image size.
    std::size_t frames = 0;
    for (const auto& st : clean.run.stats) frames += st.messages_sent;
    FaultPlan plan;
    plan.seed = 5;
    plan.drop_probability = std::min(0.05, 24.0 / static_cast<double>(frames));
    machine.set_faults(plan);

    const auto res = wavehpc::wavelet::mesh_decompose_resilient(
        machine, img, fp, cfg, 4, SequentialCostModel::paragon_node());
    EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(res.pyramid, reference));
    EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(res.pyramid, clean.pyramid));
    std::size_t retransmits = 0;
    for (const auto& st : res.run.stats) retransmits += st.retransmits;
    EXPECT_GT(res.run.injected_drops, 0U);
    EXPECT_GT(retransmits, 0U);
}

TEST(ResilientDwt, RecoversFromFailStopWithBitIdenticalOutput) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 17);
    const FilterPair fp = FilterPair::daubechies(4);
    const Pyramid reference = plain_reference(img, fp, 2);

    Machine machine(MachineProfile::paragon_pvm());
    ResilientDwtConfig cfg;
    cfg.levels = 2;
    const auto clean = wavehpc::wavelet::mesh_decompose_resilient(
        machine, img, fp, cfg, 4, SequentialCostModel::paragon_node());

    // Kill rank 2 halfway through the clean makespan: mid-decomposition for
    // any image size. A whole-run detect timeout can never false-positive.
    FaultPlan plan;
    plan.failures = {{.rank = 2, .at = 0.5 * clean.seconds}};
    machine.set_faults(plan);
    cfg.detect_timeout = clean.seconds;
    const auto res = wavehpc::wavelet::mesh_decompose_resilient(
        machine, img, fp, cfg, 4, SequentialCostModel::paragon_node());

    EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(res.pyramid, reference));
    EXPECT_TRUE(res.run.stats[2].fail_stopped);
    EXPECT_NE(std::find(res.failed_ranks.begin(), res.failed_ranks.end(), 2),
              res.failed_ranks.end());
    EXPECT_GE(res.level_retries, 1U);

    // The redo work lands in the budget's recovery category.
    double recovery = 0.0;
    for (const auto& st : res.run.stats) recovery += st.recovery_seconds;
    EXPECT_GT(recovery, 0.0);
    const auto budget = wavehpc::perf::budget_from_run(res.run);
    EXPECT_GT(budget.recovery, 0.0);
    EXPECT_NEAR(budget.useful + budget.overhead_total(), 1.0, 1e-6);
}

TEST(ResilientDwt, RecoversFromDeathBeforeFirstScatter) {
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 17);
    const FilterPair fp = FilterPair::daubechies(4);
    const Pyramid reference = plain_reference(img, fp, 1);

    Machine machine(MachineProfile::paragon_pvm());
    FaultPlan plan;
    plan.failures = {{.rank = 1, .at = 0.0}};  // dead on arrival
    machine.set_faults(plan);

    ResilientDwtConfig cfg;
    cfg.levels = 1;
    cfg.detect_timeout = 2.0;
    const auto res = wavehpc::wavelet::mesh_decompose_resilient(
        machine, img, fp, cfg, 3, SequentialCostModel::paragon_node());
    EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(res.pyramid, reference));
    EXPECT_EQ(res.failed_ranks, std::vector<int>{1});
}

TEST(ResilientDwt, FalseSuspicionOfRankZeroRetriesInsteadOfCommitting) {
    // A stripe only needs guard rows from the stripe below it, so the one way
    // a worker can falsely suspect rank 0 is its own guard *send* to rank 0
    // exhausting retries while every frame was in fact delivered (all acks
    // lost). The worker then answers kRespFail naming only rank 0, which
    // rank 0 filters out (it cannot die) — leaving the dead list empty while
    // the worker's subbands never arrived. The level must be redone, not
    // committed from a disengaged response slot.
    //
    // With 2 ranks the fault-plan draw order is fixed: ctrl (0: data, 1: ack),
    // stripe data (2, 3), then the worker's guard send is the only traffic —
    // attempts at draws 4/6/8/10 with acks at 5/7/9/11.
    const ImageF img = wavehpc::core::landsat_tm_like(64, 64, 17);
    const FilterPair fp = FilterPair::daubechies(4);
    const Pyramid reference = plain_reference(img, fp, 1);

    Machine machine(MachineProfile::paragon_pvm());
    FaultPlan plan;
    plan.drop_exact = {5, 7, 9, 11};
    machine.set_faults(plan);

    ResilientDwtConfig cfg;
    cfg.levels = 1;
    cfg.detect_timeout = 1.0;  // covers the worker's retry backoff
    cfg.reliable.max_retries = 3;
    const auto res = wavehpc::wavelet::mesh_decompose_resilient(
        machine, img, fp, cfg, 2, SequentialCostModel::paragon_node());

    EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(res.pyramid, reference));
    // The false positive costs a redo, never a rank: nobody actually died.
    EXPECT_GE(res.level_retries, 1U);
    EXPECT_TRUE(res.failed_ranks.empty());
    EXPECT_EQ(res.run.injected_drops, 4U);
    EXPECT_GE(res.run.stats[1].retransmits, 3U);
}

TEST(ResilientDwt, RejectsPlansThatKillRankZero) {
    const ImageF img = wavehpc::core::landsat_tm_like(32, 32, 3);
    const FilterPair fp = FilterPair::daubechies(4);
    Machine machine(MachineProfile::paragon_pvm());
    FaultPlan plan;
    plan.failures = {{.rank = 0, .at = 1.0}};
    machine.set_faults(plan);
    ResilientDwtConfig cfg;
    EXPECT_THROW((void)wavehpc::wavelet::mesh_decompose_resilient(
                     machine, img, fp, cfg, 2, SequentialCostModel::paragon_node()),
                 std::invalid_argument);
}

}  // namespace
