#include "core/dwt.hpp"

#include <stdexcept>
#include <string>

namespace wavehpc::core {

void validate_decomposition_request(std::size_t rows, std::size_t cols, int levels) {
    if (levels < 1) {
        throw std::invalid_argument("decompose: levels must be >= 1");
    }
    if (levels >= 63) {
        throw std::invalid_argument("decompose: levels out of range");
    }
    const std::size_t div = std::size_t{1} << levels;
    if (rows == 0 || cols == 0 || rows % div != 0 || cols % div != 0) {
        throw std::invalid_argument(
            "decompose: image dimensions must be non-zero and divisible by 2^levels");
    }
}

void validate_pyramid(const Pyramid& pyr) {
    if (pyr.depth() == 0) {
        throw std::invalid_argument("validate_pyramid: empty pyramid");
    }
    // No decomposition yields an empty approximation: validate_decomposition_request
    // rejects a zero side.
    if (pyr.approx.rows() == 0 || pyr.approx.cols() == 0) {
        throw std::invalid_argument("validate_pyramid: empty approximation");
    }
    // Walk coarse to fine: each level pairs with an approximation of the
    // shape its bands must have, twice the shape of the level below it.
    std::size_t rows = pyr.approx.rows();
    std::size_t cols = pyr.approx.cols();
    for (std::size_t k = pyr.depth(); k-- > 0;) {
        const DetailBands& d = pyr.levels[k];
        for (const ImageF* band : {&d.lh, &d.hl, &d.hh}) {
            if (band->rows() != rows || band->cols() != cols) {
                throw std::invalid_argument(
                    "validate_pyramid: level " + std::to_string(k) +
                    " detail band does not match its approximation");
            }
        }
        rows *= 2;
        cols *= 2;
    }
}

Pyramid decompose(const ImageF& img, const FilterPair& fp, int levels, BoundaryMode mode,
                  DwtKernel /*kernel*/) {
    validate_decomposition_request(img.rows(), img.cols(), levels);
    // The pyramid's detail bands, then one stripe of the level sweep per
    // level (core/kernels.hpp): each output row as soon as its rows are in.
    Pyramid pyr;
    pyr.levels.reserve(static_cast<std::size_t>(levels));
    for (int k = 1; k <= levels; ++k) {
        const ImageF band(img.rows() >> k, img.cols() >> k);
        pyr.levels.push_back({band, band, band});
    }
    HeapBufferSource heap;
    for (std::size_t k = 0; k < pyr.levels.size(); ++k) {
        DetailBands& d = pyr.levels[k];
        ImageF ll(d.lh.rows(), d.lh.cols());
        analyze_stripe(k == 0 ? img : pyr.approx, fp, mode, 0, ll.rows(), heap, ll, d.lh,
                       d.hl, d.hh);
        pyr.approx = std::move(ll);
    }
    return pyr;
}

ImageF reconstruct(const Pyramid& pyr, const FilterPair& fp, BoundaryMode mode) {
    validate_pyramid(pyr);
    ImageF current;
    for (std::size_t k = pyr.depth(); k-- > 0;) {
        // Column synthesis (LL, LH) -> L and (HL, HH) -> H, then row
        // synthesis (L, H) -> I; the coarsest LL is read in place.
        const ImageF& ll = k + 1 == pyr.depth() ? pyr.approx : current;
        const DetailBands& d = pyr.levels[k];
        const std::size_t rows = 2 * ll.rows();
        ImageF low_rows(rows, ll.cols());
        ImageF high_rows(rows, ll.cols());
        synthesize_cols_range(ll, d.lh, fp, low_rows, mode, 0, rows);
        synthesize_cols_range(d.hl, d.hh, fp, high_rows, mode, 0, rows);
        ImageF out(rows, 2 * ll.cols());
        synthesize_rows_range(low_rows, high_rows, fp, out, mode, 0, rows);
        current = std::move(out);
    }
    return current;
}

}  // namespace wavehpc::core
