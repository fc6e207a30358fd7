#include "wavelet/threads_dwt.hpp"

#include <algorithm>

#include "core/kernels.hpp"

namespace wavehpc::wavelet {

core::ImageF reconstruct_parallel(const core::Pyramid& pyr, const core::FilterPair& fp,
                                  runtime::ThreadPool& pool, core::BoundaryMode mode) {
    core::validate_pyramid(pyr);
    core::ImageF current;
    for (std::size_t lvl = pyr.depth(); lvl-- > 0;) {
        // core::reconstruct's ranges, split over output rows.
        const core::ImageF& ll = lvl + 1 == pyr.depth() ? pyr.approx : current;
        const core::DetailBands& d = pyr.levels[lvl];
        const std::size_t rows = 2 * ll.rows();
        core::ImageF low_rows(rows, ll.cols());
        core::ImageF high_rows(rows, ll.cols());
        pool.parallel_for(0, rows, [&](std::size_t mb, std::size_t me) {
            core::synthesize_cols_range(ll, d.lh, fp, low_rows, mode, mb, me);
            core::synthesize_cols_range(d.hl, d.hh, fp, high_rows, mode, mb, me);
        });
        core::ImageF out(rows, 2 * ll.cols());
        pool.parallel_for(0, rows, [&](std::size_t rb, std::size_t re) {
            core::synthesize_rows_range(low_rows, high_rows, fp, out, mode, rb, re);
        });
        current = std::move(out);
    }
    return current;
}

core::Pyramid decompose_parallel(const core::ImageF& img, const core::FilterPair& fp,
                                 int levels, core::BoundaryMode mode,
                                 runtime::ThreadPool& pool) {
    // A batch of one: one stripe per chunk of each level's output rows.
    auto pyrs = decompose_batch({&img}, fp, levels, mode, &pool, core::DwtKernel::Convolve,
                                nullptr);
    return std::move(pyrs.front());
}

std::vector<core::Pyramid> decompose_batch(
    const std::vector<const core::ImageF*>& images, const core::FilterPair& fp,
    int levels, core::BoundaryMode mode, runtime::ThreadPool* pool,
    core::DwtKernel /*kernel*/, core::FloatBufferSource* buffers) {
    const std::size_t batch = images.size();
    if (batch == 0) return {};
    for (const core::ImageF* im : images) {
        if (im == nullptr) {
            throw std::invalid_argument("decompose_batch: null image");
        }
        if (im->rows() != images.front()->rows() ||
            im->cols() != images.front()->cols()) {
            throw std::invalid_argument("decompose_batch: images differ in shape");
        }
    }
    const std::size_t rows = images.front()->rows();
    const std::size_t cols = images.front()->cols();
    core::validate_decomposition_request(rows, cols, levels);
    core::HeapBufferSource heap;
    // Every pass writes each element of its outputs, so buffers come from
    // the source as they are.
    core::FloatBufferSource& src = buffers != nullptr ? *buffers : heap;

    std::vector<core::Pyramid> out(batch);
    for (auto& p : out) p.levels.reserve(static_cast<std::size_t>(levels));
    std::vector<core::ImageF> current(batch);  // empty at level 0: inputs read in place
    for (int lvl = 0; lvl < levels; ++lvl) {
        const std::size_t half_r = rows >> (lvl + 1);
        const std::size_t half_c = cols >> (lvl + 1);
        std::vector<core::ImageF> ll(batch);
        for (std::size_t b = 0; b < batch; ++b) {
            ll[b] = core::obtain_image(src, half_r, half_c);
            out[b].levels.push_back({core::obtain_image(src, half_r, half_c),
                                     core::obtain_image(src, half_r, half_c),
                                     core::obtain_image(src, half_r, half_c)});
        }
        // One sweep over the (member, output row) cells [0, batch*half_r):
        // cell g is output row g%half_r of member g/half_r. A chunk runs one
        // stripe of the level sweep per member it spans, straight into that
        // member's bands.
        auto sweep = [&](std::size_t g0, std::size_t g1) {
            for (std::size_t b = g0 / half_r, k = g0 % half_r; g0 < g1; ++b, k = 0) {
                const std::size_t take = std::min(half_r - k, g1 - g0);
                core::DetailBands& d = out[b].levels.back();
                core::analyze_stripe(lvl == 0 ? *images[b] : current[b], fp, mode, k,
                                     k + take, src, ll[b], d.lh, d.hl, d.hh);
                g0 += take;
            }
        };
        if (pool != nullptr) {
            pool->parallel_for(0, batch * half_r, sweep);
        } else {
            sweep(0, batch * half_r);
        }
        if (lvl > 0) {
            for (std::size_t b = 0; b < batch; ++b) {
                src.recycle(current[b].release_data());
            }
        }
        current = std::move(ll);
    }
    for (std::size_t b = 0; b < batch; ++b) {
        out[b].approx = std::move(current[b]);
    }
    return out;
}

}  // namespace wavehpc::wavelet
