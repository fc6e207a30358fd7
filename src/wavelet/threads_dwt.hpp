#pragma once
// Shared-memory parallel Mallat decomposition: the same arithmetic as
// core::decompose, data-parallel over rows on the host thread pool. This is
// the "modern node" backend — where the simulators model the 1996 machines,
// this one actually runs in parallel. All arithmetic lives in the shared
// kernel layer (core/kernels.hpp); this backend only owns the range splits.

#include "core/buffers.hpp"
#include "core/dwt.hpp"
#include "runtime/thread_pool.hpp"

namespace wavehpc::wavelet {

/// Bit-identical to core::decompose(img, fp, levels, mode, kernel): both
/// run the shared fused kernels, and every output coefficient is a fixed
/// function of its source rows, so splitting the row ranges across workers
/// changes no accumulation order. `kernel` selects convolve vs lifting
/// exactly as in core::decompose (Auto defers to the process selector).
[[nodiscard]] core::Pyramid decompose_parallel(
    const core::ImageF& img, const core::FilterPair& fp, int levels,
    core::BoundaryMode mode, runtime::ThreadPool& pool,
    core::DwtKernel kernel = core::DwtKernel::Auto);

/// Fused batched decomposition (ISSUE 8): N same-shaped images share ONE
/// row sweep and ONE column sweep per level, parallelized over the global
/// index space [0, N*rows) — one pool dispatch amortizes the fork/join and
/// chunk-enqueue overhead across the whole batch instead of paying it per
/// request. Result i is bit-identical to decompose_parallel(*images[i], ...)
/// and therefore to core::decompose: the fused sweep calls the identical
/// kernel ranges per (image, row-range) cell, and every output coefficient
/// is a fixed function of its own image's rows, so neither the fusion nor
/// the chunking changes any accumulation order.
///
/// All images must be non-null with identical dimensions (throws
/// std::invalid_argument otherwise). `pool` may be null for a serial batch.
/// `buffers` (may be null = heap) supplies every scratch and subband
/// buffer; transient intermediates are recycled back into it.
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
