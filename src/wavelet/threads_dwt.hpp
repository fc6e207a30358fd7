#pragma once
// Shared-memory parallel Mallat decomposition: the same arithmetic as
// core::decompose, data-parallel over output rows on the host thread pool.
// This is the "modern node" backend — where the simulators model the 1996
// machines, this one actually runs in parallel. All arithmetic lives in the
// shared kernel layer (core/kernels.hpp): each chunk of a level runs the
// level sweep over its stripe of output rows, so a level is one pool
// dispatch; this backend only owns the splits.

#include "core/buffers.hpp"
#include "core/dwt.hpp"
#include "runtime/thread_pool.hpp"

namespace wavehpc::wavelet {

/// Bit-identical to core::decompose(img, fp, levels, mode): a batch of one.
[[nodiscard]] core::Pyramid decompose_parallel(const core::ImageF& img,
                                               const core::FilterPair& fp, int levels,
                                               core::BoundaryMode mode,
                                               runtime::ThreadPool& pool);

/// Batched decomposition: N same-shaped images share ONE parallel_for per
/// level over the (member, output row) cells [0, N*rows/2), so one pool
/// dispatch amortizes the fork/join across the whole batch. Each chunk runs
/// one stripe of the level sweep (core::analyze_stripe) per member it
/// spans, straight into that member's bands, and recomputes the row-pass
/// rows it reads past its own (the paper's guard zone). Result i is
/// bit-identical to core::decompose of *images[i], whatever the split.
///
/// All images must be non-null with identical dimensions (throws
/// std::invalid_argument otherwise). `pool` may be null for a serial batch.
/// `buffers` (may be null = heap) supplies every subband buffer and each
/// chunk's row store, which goes back to it when the chunk ends. `kernel` is
/// unused (Convolve is the one kernel); it stays because the benchmark
/// package passes it.
[[nodiscard]] std::vector<core::Pyramid> decompose_batch(
    const std::vector<const core::ImageF*>& images, const core::FilterPair& fp,
    int levels, core::BoundaryMode mode, runtime::ThreadPool* pool,
    core::DwtKernel kernel = core::DwtKernel::Auto,
    core::FloatBufferSource* buffers = nullptr);

/// Bit-identical to core::reconstruct(pyr, fp, mode): both run the kernel
/// layer's gather-form synthesis bodies, which compute each output
/// independently, so splitting their row ranges across workers changes no
/// accumulation order. Pass the boundary mode the pyramid was analyzed with
/// (default Periodic, the exact-reconstruction convention). Throws
/// std::invalid_argument unless core::validate_pyramid accepts `pyr`.
[[nodiscard]] core::ImageF reconstruct_parallel(
    const core::Pyramid& pyr, const core::FilterPair& fp, runtime::ThreadPool& pool,
    core::BoundaryMode mode = core::BoundaryMode::Periodic);

}  // namespace wavehpc::wavelet
