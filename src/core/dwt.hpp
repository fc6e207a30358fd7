#pragma once
// The multi-resolution wavelet decomposition of Mallat [Mal89] as used by
// the paper (section 2): repeated row filtering + column decimation followed
// by column filtering + row decimation, recursing on the LL band.

#include <cstddef>
#include <vector>

#include "core/boundary.hpp"
#include "core/filters.hpp"
#include "core/image.hpp"
#include "core/kernels.hpp"

namespace wavehpc::core {

/// One level of detail subbands. The LL band is either carried to the next
/// level or stored as the Pyramid approximation.
struct DetailBands {
    ImageF lh;  ///< low-pass rows, high-pass columns
    ImageF hl;  ///< high-pass rows, low-pass columns
    ImageF hh;  ///< high-pass rows, high-pass columns
};

/// Result of one full decomposition level (figure 1 of the paper).
struct Subbands {
    ImageF ll;
    DetailBands detail;
};

/// Multi-resolution pyramid: detail bands per level (finest first) plus the
/// final coarse approximation I_L.
struct Pyramid {
    std::vector<DetailBands> levels;
    ImageF approx;

    [[nodiscard]] std::size_t depth() const noexcept { return levels.size(); }
};

/// Steps (1)-(4) of the paper's algorithm: decompose one level. `kernel`
/// selects the arithmetic path (core/kernels.hpp); Auto defers to the
/// process-wide selector and resolves to Convolve by default.
[[nodiscard]] Subbands decompose_level(const ImageF& in, const FilterPair& fp,
                                       BoundaryMode mode = BoundaryMode::Periodic,
                                       DwtKernel kernel = DwtKernel::Auto);

/// Full multi-resolution decomposition to `levels` levels. The image
/// dimensions must be divisible by 2^levels. Reads `img` in place at
/// level 0 (no working copy).
[[nodiscard]] Pyramid decompose(const ImageF& img, const FilterPair& fp, int levels,
                                BoundaryMode mode = BoundaryMode::Periodic,
                                DwtKernel kernel = DwtKernel::Auto);

/// Full reconstruction (figure 2) through the kernel layer's synthesis
/// bodies (core/kernels.hpp). Pass the mode used for analysis; the inverse
/// is exact (up to float rounding) for Periodic, and edge-consistent for
/// Symmetric/ZeroPad. wavelet::reconstruct_parallel and
/// wavelet::mesh_reconstruct run the same bodies and match it bit for bit.
/// Throws std::invalid_argument unless validate_pyramid accepts `pyr`.
[[nodiscard]] ImageF reconstruct(const Pyramid& pyr, const FilterPair& fp,
                                 BoundaryMode mode = BoundaryMode::Periodic);

/// Throws std::invalid_argument unless `pyr` has at least one level and
/// every level's lh, hl and hh bands have the shape of the approximation
/// they pair with: pyr.approx for the coarsest level, twice the next
/// coarser level's shape for the others.
void validate_pyramid(const Pyramid& pyr);

/// Throws std::invalid_argument unless rows and cols are divisible by
/// 2^levels and levels >= 1.
void validate_decomposition_request(std::size_t rows, std::size_t cols, int levels);

}  // namespace wavehpc::core
