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
    // A batch of one: identical range splits (parallel_for over [0, rows)),
    // identical kernel calls, hence bit-identical to the historical
    // unbatched loop.
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
    core::validate_decomposition_request(images.front()->rows(),
                                         images.front()->cols(), levels);
    core::HeapBufferSource heap;
    // Every pass writes each element of its outputs, so buffers come from
    // the source as they are.
    core::FloatBufferSource& src = buffers != nullptr ? *buffers : heap;

    std::vector<core::Pyramid> out(batch);
    for (auto& p : out) p.levels.reserve(static_cast<std::size_t>(levels));
    std::vector<core::ImageF> current(batch);  // empty at level 0: inputs read in place
    std::vector<core::ImageF> low_rows(batch);
    std::vector<core::ImageF> high_rows(batch);

    std::size_t rows = images.front()->rows();
    std::size_t cols = images.front()->cols();
    for (int lvl = 0; lvl < levels; ++lvl) {
        const std::size_t half_r = rows / 2;
        const std::size_t half_c = cols / 2;
        for (std::size_t b = 0; b < batch; ++b) {
            low_rows[b] = core::obtain_image(src, rows, half_c);
            high_rows[b] = core::obtain_image(src, rows, half_c);
        }
        // One fused row sweep over the global index space [0, batch*rows):
        // global index g addresses row g%rows of image g/rows. A chunk
        // spanning an image seam simply issues one range call per image.
        auto row_sweep = [&](std::size_t g0, std::size_t g1) {
            std::size_t b = g0 / rows;
            std::size_t r = g0 % rows;
            while (g0 < g1) {
                const std::size_t take = std::min(rows - r, g1 - g0);
                const core::ImageF& in = lvl == 0 ? *images[b] : current[b];
                core::analyze_rows_range(in, fp, low_rows[b], high_rows[b], mode,
                                         core::DwtKernel::Convolve, r, r + take);
                g0 += take;
                ++b;
                r = 0;
            }
        };
        if (pool != nullptr) {
            pool->parallel_for(0, batch * rows, row_sweep);
        } else {
            row_sweep(0, batch * rows);
        }
        if (lvl > 0) {
            for (std::size_t b = 0; b < batch; ++b) {
                src.recycle(current[b].release_data());
            }
        }

        std::vector<core::ImageF> ll(batch);
        for (std::size_t b = 0; b < batch; ++b) {
            ll[b] = core::obtain_image(src, half_r, half_c);
            core::DetailBands d;
            d.lh = core::obtain_image(src, half_r, half_c);
            d.hl = core::obtain_image(src, half_r, half_c);
            d.hh = core::obtain_image(src, half_r, half_c);
            out[b].levels.push_back(std::move(d));
        }
        // One fused column sweep over [0, batch*half_r).
        auto col_sweep = [&](std::size_t g0, std::size_t g1) {
            std::size_t b = g0 / half_r;
            std::size_t k = g0 % half_r;
            while (g0 < g1) {
                const std::size_t take = std::min(half_r - k, g1 - g0);
                core::DetailBands& d = out[b].levels.back();
                core::analyze_cols_range(low_rows[b], high_rows[b], fp, ll[b], d.lh,
                                         d.hl, d.hh, mode, core::DwtKernel::Convolve, k,
                                         k + take);
                g0 += take;
                ++b;
                k = 0;
            }
        };
        if (pool != nullptr) {
            pool->parallel_for(0, batch * half_r, col_sweep);
        } else {
            col_sweep(0, batch * half_r);
        }
        for (std::size_t b = 0; b < batch; ++b) {
            src.recycle(low_rows[b].release_data());
            src.recycle(high_rows[b].release_data());
        }
        current = std::move(ll);
        rows = half_r;
        cols = half_c;
    }
    for (std::size_t b = 0; b < batch; ++b) {
        out[b].approx = std::move(current[b]);
    }
    return out;
}

}  // namespace wavehpc::wavelet
