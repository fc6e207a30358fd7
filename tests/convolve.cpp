#include "convolve.hpp"

#include <stdexcept>

namespace wavehpc::core {

namespace {

void require_even(std::size_t n, const char* what) {
    if (n == 0 || n % 2 != 0) {
        throw std::invalid_argument(std::string("convolve: ") + what +
                                    " must be even and non-zero");
    }
}

// True when all taps of the window starting at 2k stay inside [0, n) —
// the fast path that needs no boundary mapping.
[[nodiscard]] inline bool interior(std::size_t k, std::size_t taps, std::size_t n) noexcept {
    return 2 * k + taps <= n;
}

}  // namespace

void convolve_decimate_1d(std::span<const float> x, std::span<const float> f,
                          std::span<float> y, BoundaryMode mode) {
    require_even(x.size(), "signal length");
    const std::size_t half = x.size() / 2;
    if (y.size() != half) {
        throw std::invalid_argument("convolve_decimate_1d: output size must be n/2");
    }
    const std::size_t taps = f.size();
    for (std::size_t k = 0; k < half; ++k) {
        float acc = 0.0F;
        if (interior(k, taps, x.size())) {
            const float* base = x.data() + 2 * k;
            for (std::size_t n = 0; n < taps; ++n) acc += f[n] * base[n];
        } else {
            for (std::size_t n = 0; n < taps; ++n) {
                const std::size_t idx =
                    extend_index(static_cast<std::ptrdiff_t>(2 * k + n), x.size(), mode);
                if (idx < x.size()) acc += f[n] * x[idx];
            }
        }
        y[k] = acc;
    }
}

void convolve_decimate_rows(const ImageF& in, std::span<const float> f, ImageF& out,
                            BoundaryMode mode) {
    require_even(in.cols(), "column count");
    const std::size_t half = in.cols() / 2;
    if (out.rows() != in.rows() || out.cols() != half) {
        out = ImageF(in.rows(), half);
    }
    for (std::size_t r = 0; r < in.rows(); ++r) {
        convolve_decimate_1d(in.row(r), f, out.row(r), mode);
    }
}

void convolve_decimate_cols(const ImageF& in, std::span<const float> f, ImageF& out,
                            BoundaryMode mode) {
    require_even(in.rows(), "row count");
    const std::size_t half = in.rows() / 2;
    const std::size_t taps = f.size();
    if (out.rows() != half || out.cols() != in.cols()) {
        out = ImageF(half, in.cols());
    }
    // Process whole rows in the inner loop to stay cache-friendly.
    for (std::size_t k = 0; k < half; ++k) {
        auto dst = out.row(k);
        for (auto& v : dst) v = 0.0F;
        for (std::size_t n = 0; n < taps; ++n) {
            const std::size_t idx =
                extend_index(static_cast<std::ptrdiff_t>(2 * k + n), in.rows(), mode);
            if (idx >= in.rows()) continue;  // ZeroPad outside
            const float w = f[n];
            auto src = in.row(idx);
            for (std::size_t c = 0; c < in.cols(); ++c) dst[c] += w * src[c];
        }
    }
}

}  // namespace wavehpc::core
