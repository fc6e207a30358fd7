// Paper Figure 2: multi-resolution reconstruction — the mirror process of
// figure 1. The paper gives no reconstruction timings, so this regenerator
// establishes the expected symmetry: synthesis performs the same
// output-count and MAC-count as analysis, so on every machine the
// reconstruction time tracks the decomposition time, and the distributed
// version inherits the same scaling behaviour (north guard zones instead of
// south).

#include <iostream>

#include "core/synthetic.hpp"
#include "perf/report.hpp"
#include "wavelet/mesh_dwt.hpp"
#include "wavelet/mesh_idwt.hpp"

int main() {
    using namespace wavehpc;

    std::cout << "=== Figure 2: reconstruction mirrors decomposition (Paragon, "
                 "PVM) ===\n512x512 scene; decompose and reconstruct timed "
                 "end-to-end from/to node 0.\n\n";

    const auto img = core::landsat_tm_like(512, 512, 1996);

    for (const auto& cfg : {std::pair{8, 1}, std::pair{4, 2}, std::pair{2, 4}}) {
        const auto [taps, levels] = cfg;
        const auto fp = core::FilterPair::daubechies(taps);
        std::cout << "F" << taps << "/L" << levels << ":\n";
        perf::TableWriter tw(
            {"procs", "decompose (s)", "reconstruct (s)", "ratio"});
        for (std::size_t p : {1U, 4U, 16U, 32U}) {
            mesh::Machine m1(mesh::MachineProfile::paragon_pvm());
            wavelet::MeshDwtConfig dcfg;
            dcfg.levels = levels;
            dcfg.mode = core::BoundaryMode::Periodic;
            const auto dec = wavelet::mesh_decompose(
                m1, img, fp, dcfg, p, core::SequentialCostModel::paragon_node());

            mesh::Machine m2(mesh::MachineProfile::paragon_pvm());
            const auto rec = wavelet::mesh_reconstruct(
                m2, dec.pyramid, fp, {}, p, core::SequentialCostModel::paragon_node());

            tw.add_row({std::to_string(p), perf::TableWriter::num(dec.seconds),
                        perf::TableWriter::num(rec.seconds),
                        perf::TableWriter::num(rec.seconds / dec.seconds, 2)});
        }
        tw.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "Expected shape: ratio near 1 at every processor count — the "
                 "synthesis\nfilter bank does the same arithmetic as the analysis "
                 "bank, and the\nnorth guard exchange mirrors the south one.\n";
    return 0;
}
