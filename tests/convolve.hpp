#pragma once
// Filtering + dyadic decimation primitives of the Mallat algorithm
// (steps 1-4 of the paper's section 2): the unfused analysis oracle that
// the kernel layer's Convolve bodies are pinned to bit for bit. It lives
// in the test tree because only tests call it; the library runs the
// kernel layer (core/kernels.hpp) for analysis and synthesis alike.
//
// Analysis convention, along a length-N signal x with filter f of length F:
//     y[k] = sum_{n=0}^{F-1} f[n] * x~[2k + n],  k in [0, N/2)
// where x~ is x extended per BoundaryMode.

#include <span>

#include "core/boundary.hpp"
#include "core/image.hpp"

namespace wavehpc::core {

/// Filter every row of `in` with `f` and keep every second output column.
/// Output shape: (in.rows(), in.cols()/2). in.cols() must be even.
void convolve_decimate_rows(const ImageF& in, std::span<const float> f, ImageF& out,
                            BoundaryMode mode);

/// Filter every column of `in` with `f` and keep every second output row.
/// Output shape: (in.rows()/2, in.cols()). in.rows() must be even.
void convolve_decimate_cols(const ImageF& in, std::span<const float> f, ImageF& out,
                            BoundaryMode mode);

/// 1-D analysis step, the per-signal form of the two above:
/// y[k] = sum f[n] x~[2k+n] for k in [0, x.size()/2).
void convolve_decimate_1d(std::span<const float> x, std::span<const float> f,
                          std::span<float> y, BoundaryMode mode);

}  // namespace wavehpc::core
