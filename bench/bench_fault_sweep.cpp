// Fault sweep: resilient striped DWT makespan and transport work under
// increasing message-drop probability, plus two focused demonstrations —
// the deadlock report a raw-transport drop produces, and a fail-stop
// recovery with its budget charged to the recovery category.
//
// Shared flags (common_args.hpp): --seed N seeds both the scene and the
// fault plans; --size N sets the scene edge; --smoke reduces the sweep to
// two process counts and two drop rates for CI.

#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common_args.hpp"
#include "core/synthetic.hpp"
#include "mesh/machine.hpp"
#include "perf/budget.hpp"
#include "perf/report.hpp"
#include "sim/engine.hpp"
#include "testing/invariants.hpp"
#include "wavelet/mesh_dwt_resilient.hpp"

namespace {

using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::SequentialCostModel;
using wavehpc::mesh::FaultPlan;
using wavehpc::mesh::Machine;
using wavehpc::mesh::MachineProfile;
using wavehpc::testing::pyramids_bit_identical;
using wavehpc::wavelet::ResilientDwtConfig;
using wavehpc::wavelet::ResilientDwtResult;

ResilientDwtResult run_once(const ImageF& img, const FilterPair& fp,
                            std::size_t procs, const FaultPlan& plan) {
    Machine machine(MachineProfile::paragon_pvm());
    machine.set_faults(plan);
    ResilientDwtConfig cfg;
    cfg.levels = 2;
    cfg.detect_timeout = 2.0;
    return wavehpc::wavelet::mesh_decompose_resilient(
        machine, img, fp, cfg, procs, SequentialCostModel::paragon_node());
}

void drop_sweep(const ImageF& img, const FilterPair& fp, std::uint64_t seed,
                bool smoke) {
    const std::vector<double> drop_rates =
        smoke ? std::vector<double>{0.0, 1e-3}
              : std::vector<double>{0.0, 1e-4, 1e-3, 1e-2};
    const std::vector<std::size_t> proc_counts =
        smoke ? std::vector<std::size_t>{4, 8}
              : std::vector<std::size_t>{4, 8, 16, 32};
    for (std::size_t procs : proc_counts) {
        const auto clean = run_once(img, fp, procs, FaultPlan{});
        std::cout << "resilient DWT under message drops, " << procs
                  << " procs (paragon_pvm, " << img.rows() << "x" << img.cols()
                  << ", f4 l2):\n";
        wavehpc::perf::TableWriter tw({"drop p", "seconds", "retransmits",
                                       "drops", "timeouts", "identical"});
        for (double dp : drop_rates) {
            FaultPlan plan;
            plan.seed = seed;
            plan.drop_probability = dp;
            const auto res = run_once(img, fp, procs, plan);
            std::size_t retx = 0;
            std::size_t timeouts = 0;
            for (const auto& st : res.run.stats) {
                retx += st.retransmits;
                timeouts += st.recv_timeouts;
            }
            tw.add_row({wavehpc::perf::TableWriter::num(dp, 4),
                        wavehpc::perf::TableWriter::num(res.seconds),
                        std::to_string(retx),
                        std::to_string(res.run.injected_drops),
                        std::to_string(timeouts),
                        pyramids_bit_identical(res.pyramid, clean.pyramid) ? "yes"
                                                                           : "NO"});
        }
        tw.print(std::cout);
        std::cout << '\n';
    }
}

void deadlock_demo() {
    std::cout << "deadlock diagnostics: raw transport, one dropped message\n";
    Machine machine(MachineProfile::test_profile(4, 4));
    FaultPlan plan;
    plan.drop_exact = {0};  // first message vanishes
    machine.set_faults(plan);
    try {
        (void)machine.run(2, [](wavehpc::mesh::NodeCtx& ctx) {
            if (ctx.rank() == 0) {
                const std::vector<int> v{42};
                ctx.csend(5, 1, std::as_bytes(std::span{v}));
            } else {
                (void)ctx.crecv(5, 0);  // waits forever
            }
        });
        std::cout << "  unexpected: run completed\n";
    } catch (const wavehpc::sim::DeadlockError& e) {
        std::cout << "  " << e.what() << "\n";
    }
    std::cout << '\n';
}

void failstop_demo(const ImageF& img, const FilterPair& fp) {
    const auto clean = run_once(img, fp, 8, FaultPlan{});
    const double fail_at = 0.5 * clean.seconds;
    std::cout << "fail-stop recovery: rank 2 of 8 dies at t="
              << wavehpc::perf::TableWriter::num(fail_at)
              << " s (half the clean makespan)\n";
    FaultPlan plan;
    plan.failures = {{.rank = 2, .at = fail_at}};
    Machine machine(MachineProfile::paragon_pvm());
    machine.set_faults(plan);
    ResilientDwtConfig cfg;
    cfg.levels = 2;
    cfg.detect_timeout = clean.seconds;
    const auto res = wavehpc::wavelet::mesh_decompose_resilient(
        machine, img, fp, cfg, 8, SequentialCostModel::paragon_node());
    std::cout << "  coefficients identical to fault-free run: "
              << (pyramids_bit_identical(res.pyramid, clean.pyramid) ? "yes" : "NO")
              << "\n  level redo attempts: " << res.level_retries
              << ", makespan " << wavehpc::perf::TableWriter::num(res.seconds)
              << " s (clean " << wavehpc::perf::TableWriter::num(clean.seconds)
              << " s)\n";
    wavehpc::perf::TableWriter tw(wavehpc::perf::budget_headers("run"));
    wavehpc::perf::print_budget_row(tw, "clean",
                                    wavehpc::perf::budget_from_run(clean.run));
    wavehpc::perf::print_budget_row(tw, "failstop",
                                    wavehpc::perf::budget_from_run(res.run));
    tw.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
    wavehpc::bench::CommonArgs args;
    if (!wavehpc::bench::parse_bench_args(argc, argv, args)) return 2;
    const std::size_t edge =
        wavehpc::bench::or_default<std::size_t>(args.size, args.smoke ? 64 : 128);
    const std::uint64_t seed = wavehpc::bench::or_default<std::uint64_t>(args.seed, 97);

    const ImageF img = wavehpc::core::landsat_tm_like(edge, edge, 29);
    const FilterPair fp = FilterPair::daubechies(4);
    drop_sweep(img, fp, seed, args.smoke);
    deadlock_demo();
    failstop_demo(img, fp);
    return 0;
}
