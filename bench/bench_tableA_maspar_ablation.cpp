// Regenerates the paper's section 4.1 MasPar algorithm study: systolic vs
// systolic-with-dilution, and cut-and-stack vs hierarchical virtualization,
// with the SIMD cycle budget broken down by instruction class.

#include <iostream>

#include "core/synthetic.hpp"
#include "maspar/maspar_dwt.hpp"
#include "perf/report.hpp"

namespace {

using wavehpc::maspar::Algorithm;
using wavehpc::maspar::MasParProfile;
using wavehpc::maspar::Virtualization;
using wavehpc::perf::TableWriter;

const char* alg_name(Algorithm a) {
    return a == Algorithm::Systolic ? "systolic" : "systolic+dilution";
}
const char* virt_name(Virtualization v) {
    return v == Virtualization::CutAndStack ? "cut-and-stack" : "hierarchical";
}

}  // namespace

int main() {
    std::cout << "=== MasPar MP-2 algorithm/virtualization ablation (paper §4.1) ===\n"
              << "512x512 scene; cycle budget per decomposition, by instruction "
                 "class.\n\n";

    const auto img = wavehpc::core::landsat_tm_like(512, 512, 1996);

    for (const auto& cfg : {std::pair{8, 1}, std::pair{4, 2}, std::pair{2, 4}}) {
        const auto [taps, levels] = cfg;
        std::cout << "F" << taps << "/L" << levels << ":\n";
        TableWriter tw({"algorithm", "virtualization", "seconds", "mac kcyc",
                        "xnet kcyc", "router kcyc", "local kcyc", "setup kcyc"});
        for (auto alg : {Algorithm::Systolic, Algorithm::SystolicDilution}) {
            for (auto virt :
                 {Virtualization::CutAndStack, Virtualization::Hierarchical}) {
                const auto res = wavehpc::maspar::maspar_decompose(
                    MasParProfile::mp2_16k(), img,
                    wavehpc::core::FilterPair::daubechies(taps), levels, alg, virt);
                tw.add_row({alg_name(alg), virt_name(virt),
                            TableWriter::num(res.seconds),
                            TableWriter::num(res.cycles.mac / 1000.0, 1),
                            TableWriter::num(res.cycles.xnet / 1000.0, 1),
                            TableWriter::num(res.cycles.router / 1000.0, 1),
                            TableWriter::num(res.cycles.pe_local / 1000.0, 1),
                            TableWriter::num(res.cycles.setup / 1000.0, 1)});
            }
        }
        tw.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "Paper shape: hierarchical virtualization beats cut-and-stack (better\n"
                 "locality: only block edges cross the X-net); dilution eliminates the\n"
                 "router column at the price of longer X-net shifts at deep levels.\n"
                 "MP-1 vs MP-2 (generation ablation):\n";
    const auto mp1 = wavehpc::maspar::maspar_decompose(
        MasParProfile::mp1_16k(), img, wavehpc::core::FilterPair::daubechies(8), 1,
        Algorithm::Systolic, Virtualization::Hierarchical);
    const auto mp2 = wavehpc::maspar::maspar_decompose(
        MasParProfile::mp2_16k(), img, wavehpc::core::FilterPair::daubechies(8), 1,
        Algorithm::Systolic, Virtualization::Hierarchical);
    std::cout << "  F8/L1: MP-1 " << mp1.seconds << " s, MP-2 " << mp2.seconds
              << " s (32-bit RISC PEs vs 4-bit PEs: " << mp1.seconds / mp2.seconds
              << "x)\n";
    return 0;
}
