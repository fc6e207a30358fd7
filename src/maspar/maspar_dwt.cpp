#include "maspar/maspar_dwt.hpp"

namespace wavehpc::maspar {

MasparDwtResult maspar_decompose(const MasParProfile& profile, const core::ImageF& img,
                                 const core::FilterPair& fp, int levels, Algorithm alg,
                                 Virtualization virt) {
    core::validate_decomposition_request(img.rows(), img.cols(), levels);
    const CycleModel model(profile);

    MasparDwtResult res;
    // The SIMD schedule and the arithmetic are independent: both algorithms
    // compute the same coefficients (dilution evaluates the dilated filter
    // at the kept positions, which equals convolving the decimated plane),
    // so the pyramid comes from the reference kernels while the cycle
    // ledger follows the algorithm-specific schedule.
    res.pyramid = core::decompose(img, fp, levels, core::BoundaryMode::Periodic);
    res.cycles = model.total_cost(img.rows(), img.cols(), levels, fp.taps(), alg, virt);
    res.seconds = model.seconds(res.cycles);
    return res;
}

}  // namespace wavehpc::maspar
