#pragma once
// Wavelet compression operators — the application the paper's introduction
// motivates (EOSDIS-scale image archives): detail thresholding, retention
// by largest magnitude, uniform quantization, and a codec-independent
// first-order entropy estimate of the coded size.

#include "core/dwt.hpp"

namespace wavehpc::core {

/// Zero every detail coefficient with |c| <= threshold (the approximation
/// band is always kept). Returns the number of surviving coefficients,
/// approximation included.
std::size_t threshold_pyramid(Pyramid& pyr, float threshold);

/// Keep (approximately) the `keep_fraction` in (0, 1] largest-magnitude
/// detail coefficients, zeroing the rest. Returns survivors including the
/// approximation band.
std::size_t keep_largest(Pyramid& pyr, double keep_fraction);

/// Uniform scalar quantization of the detail bands with step `step` > 0
/// (round to nearest; the approximation stays exact). The pyramid is left
/// dequantized, i.e. ready for reconstruct(); max introduced error per
/// coefficient is step/2.
void quantize_details(Pyramid& pyr, float step);

/// First-order entropy, in bits per detail coefficient, of the detail bands
/// quantized with `step` — a lower bound on what an entropy coder would
/// spend. Returns 0 for an all-zero detail set.
[[nodiscard]] double detail_entropy_bits(const Pyramid& pyr, float step);

/// Same estimate for ONE band (its own histogram): bench_tiled_stream
/// prices each subband individually to place it on its simulated
/// delivery link. Returns 0 for an empty band.
[[nodiscard]] double band_entropy_bits(const ImageF& band, float step);

struct CompressionReport {
    std::size_t total_coefficients = 0;
    std::size_t stored_coefficients = 0;
    double compression_ratio = 0.0;  ///< total / stored
    double psnr_db = 0.0;            ///< against the original, peak 255
    double entropy_bits = 0.0;       ///< per detail coefficient at step 1.0
};

/// End-to-end rate/distortion point: decompose, keep the largest fraction,
/// reconstruct, measure.
[[nodiscard]] CompressionReport compress_report(const ImageF& img, const FilterPair& fp,
                                                int levels, double keep_fraction);

}  // namespace wavehpc::core
