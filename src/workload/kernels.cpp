#include "workload/kernels.hpp"

#include <span>
#include <stdexcept>

#include "core/splitmix.hpp"

namespace wavehpc::workload {

namespace {

// Small helper to append an op depending on up to two predecessors.
std::uint32_t emit(Trace& t, OpType type, std::uint32_t d0 = UINT32_MAX,
                   std::uint32_t d1 = UINT32_MAX) {
    Instruction in;
    in.type = type;
    if (d0 != UINT32_MAX) in.deps.push_back(d0);
    if (d1 != UINT32_MAX && d1 != d0) in.deps.push_back(d1);
    t.push_back(std::move(in));
    return static_cast<std::uint32_t>(t.size() - 1);
}

// embar: many independent Monte-Carlo blocks; inside a block a serial
// int/fp chain (the linear-congruential recurrence), across blocks nothing.
Trace gen_embar(std::size_t scale, std::uint64_t /*seed*/) {
    Trace t;
    const std::size_t blocks = 50 * scale;
    for (std::size_t b = 0; b < blocks; ++b) {
        std::uint32_t prev = UINT32_MAX;
        for (int i = 0; i < 8; ++i) {
            prev = emit(t, OpType::Int, prev);          // LCG update
            const auto f1 = emit(t, OpType::Fp, prev);  // scale to (0,1)
            const auto f2 = emit(t, OpType::Fp, f1);    // transform
            (void)emit(t, OpType::Branch, f2);          // acceptance test
        }
        (void)emit(t, OpType::Mem, prev);  // tally store
    }
    return t;
}

// mgrid: V-cycle of stencil layers: each point depends on a few points of
// the previous (coarser/finer) layer.
Trace gen_mgrid(std::size_t scale, std::uint64_t seed) {
    Trace t;
    std::vector<std::uint32_t> prev_layer;
    std::size_t width = 400 * scale;
    for (int layer = 0; layer < 6; ++layer) {
        std::vector<std::uint32_t> layer_ops;
        layer_ops.reserve(width);
        for (std::size_t i = 0; i < width; ++i) {
            std::uint32_t d0 = UINT32_MAX;
            std::uint32_t d1 = UINT32_MAX;
            if (!prev_layer.empty()) {
                d0 = prev_layer[core::mix64(seed ^ i) % prev_layer.size()];
                d1 = prev_layer[(2 * i + 1) % prev_layer.size()];
            }
            const auto ld = emit(t, OpType::Mem, d0, d1);   // load neighbours
            const auto fp = emit(t, OpType::Fp, ld);        // stencil combine
            const auto ix = emit(t, OpType::Int, fp);       // index arithmetic
            layer_ops.push_back(emit(t, OpType::Mem, ix));  // store
        }
        (void)emit(t, OpType::Branch, layer_ops.back());  // level loop
        prev_layer = std::move(layer_ops);
        width = std::max<std::size_t>(width / 2, 8);
    }
    return t;
}

// cgm: sparse mat-vec rows (gather + MAC chain) feeding a log-depth
// reduction tree per iteration — modest, irregular parallelism.
Trace gen_cgm(std::size_t scale, std::uint64_t seed) {
    Trace t;
    const std::size_t rows = 120 * scale;
    std::vector<std::uint32_t> partials;
    for (std::size_t r = 0; r < rows; ++r) {
        std::uint32_t acc = UINT32_MAX;
        const std::size_t nnz = 3 + core::mix64(seed ^ r) % 5;
        for (std::size_t k = 0; k < nnz; ++k) {
            const auto idx = emit(t, OpType::Int);        // column index
            const auto ld = emit(t, OpType::Mem, idx);    // gather x[col]
            acc = emit(t, OpType::Fp, ld, acc);           // MAC chain
        }
        partials.push_back(acc);
        (void)emit(t, OpType::Branch, acc);  // row loop
    }
    // Reduction tree over the row results.
    while (partials.size() > 1) {
        std::vector<std::uint32_t> next;
        for (std::size_t i = 0; i + 1 < partials.size(); i += 2) {
            next.push_back(emit(t, OpType::Fp, partials[i], partials[i + 1]));
        }
        if (partials.size() % 2 != 0) next.push_back(partials.back());
        partials = std::move(next);
    }
    return t;
}

// fftpde: radix-2 butterfly stages: op (s, i) depends on (s-1, i) and
// (s-1, i ^ 2^(s-1)) — wide and perfectly layered.
Trace gen_fftpde(std::size_t scale, std::uint64_t /*seed*/) {
    Trace t;
    std::size_t n = 256;
    while (n * 12 < 1000 * scale) n *= 2;
    std::vector<std::uint32_t> cur(n);
    for (std::size_t i = 0; i < n; ++i) cur[i] = emit(t, OpType::Mem);  // load
    std::size_t stages = 0;
    for (std::size_t len = 1; len < n; len *= 2) ++stages;
    for (std::size_t s = 0; s < stages; ++s) {
        std::vector<std::uint32_t> next(n);
        const std::size_t bit = std::size_t{1} << s;
        for (std::size_t i = 0; i < n; ++i) {
            const auto tw = emit(t, OpType::Int, cur[i]);  // twiddle index
            next[i] = emit(t, OpType::Fp, tw, cur[i ^ bit]);
        }
        cur = std::move(next);
        (void)emit(t, OpType::Control, cur[0]);  // stage barrier marker
    }
    for (std::size_t i = 0; i < n; ++i) (void)emit(t, OpType::Mem, cur[i]);  // store
    return t;
}

// buk: bucket sort — integer/memory work with serializing bucket counters
// (every increment of a bucket depends on its previous increment).
Trace gen_buk(std::size_t scale, std::uint64_t seed) {
    Trace t;
    const std::size_t keys = 300 * scale;
    constexpr std::size_t kBuckets = 16;
    std::vector<std::uint32_t> counter(kBuckets, UINT32_MAX);
    std::uint32_t scan = UINT32_MAX;  // sequential key-scan pointer
    for (std::size_t i = 0; i < keys; ++i) {
        scan = emit(t, OpType::Mem, scan);            // load key (scan chain)
        const auto bk = emit(t, OpType::Int, scan);   // bucket index
        const std::size_t b = core::mix64(seed ^ i) % kBuckets;
        counter[b] = emit(t, OpType::Int, bk, counter[b]);  // serialized count
        (void)emit(t, OpType::Mem, counter[b]);             // store count
        (void)emit(t, OpType::Branch, bk);                  // loop test
    }
    return t;
}

// Wavefront sweep skeleton shared by the applu/appsp/appbt CFD kernels:
// a diag x diag grid where point (i,j) depends on (i-1,j) and (i,j-1),
// with `fp_block` floating ops per point (bt > sp > lu per-point work).
Trace gen_wavefront(std::size_t scale, int fp_block, int mem_block) {
    Trace t;
    const auto diag = static_cast<std::size_t>(8 + 4 * scale);
    const std::size_t sweeps =
        std::max<std::size_t>(1, 1000 * scale /
                                     (diag * diag *
                                      static_cast<std::size_t>(fp_block + mem_block + 2)));
    std::vector<std::uint32_t> grid(diag * diag, UINT32_MAX);
    for (std::size_t s = 0; s < sweeps; ++s) {
        for (std::size_t i = 0; i < diag; ++i) {
            for (std::size_t j = 0; j < diag; ++j) {
                const std::uint32_t west = (j > 0) ? grid[i * diag + j - 1] : UINT32_MAX;
                const std::uint32_t north = (i > 0) ? grid[(i - 1) * diag + j] : UINT32_MAX;
                std::uint32_t cur = emit(t, OpType::Mem, west, north);
                for (int f = 0; f < fp_block; ++f) cur = emit(t, OpType::Fp, cur);
                for (int m = 0; m < mem_block; ++m) cur = emit(t, OpType::Mem, cur);
                cur = emit(t, OpType::Int, cur);
                (void)emit(t, OpType::Branch, cur);
                grid[i * diag + j] = cur;
            }
        }
    }
    return t;
}

}  // namespace

const char* kernel_name(NasKernel k) {
    switch (k) {
        case NasKernel::Embar: return "embar";
        case NasKernel::Mgrid: return "mgrid";
        case NasKernel::Cgm: return "cgm";
        case NasKernel::Fftpde: return "fftpde";
        case NasKernel::Buk: return "buk";
        case NasKernel::Applu: return "applu";
        case NasKernel::Appsp: return "appsp";
        case NasKernel::Appbt: return "appbt";
    }
    return "?";
}

Trace make_kernel(NasKernel k, std::size_t scale, std::uint64_t seed) {
    if (scale == 0) throw std::invalid_argument("make_kernel: scale must be > 0");
    switch (k) {
        case NasKernel::Embar: return gen_embar(scale, seed);
        case NasKernel::Mgrid: return gen_mgrid(scale, seed);
        case NasKernel::Cgm: return gen_cgm(scale, seed);
        case NasKernel::Fftpde: return gen_fftpde(scale, seed);
        case NasKernel::Buk: return gen_buk(scale, seed);
        case NasKernel::Applu: return gen_wavefront(scale, 2, 1);
        case NasKernel::Appsp: return gen_wavefront(scale, 4, 2);
        case NasKernel::Appbt: return gen_wavefront(scale, 7, 3);
    }
    throw std::invalid_argument("make_kernel: unknown kernel");
}

Trace make_wavelet_trace(std::size_t rows, std::size_t cols, int taps, int levels) {
    if (rows == 0 || cols == 0 || taps <= 0 || levels <= 0) {
        throw std::invalid_argument("make_wavelet_trace: bad parameters");
    }
    Trace t;
    // producer[r][c] = op index of the last store of the running LL pixel.
    std::vector<std::uint32_t> producer(rows * cols, UINT32_MAX);

    const auto convolve_output = [&](std::span<const std::uint32_t> inputs) {
        // taps loads (each depending on its producer), a chained MAC
        // sequence, one store; returns the store op.
        std::uint32_t chain = UINT32_MAX;
        for (std::uint32_t in : inputs) {
            const auto load = emit(t, OpType::Mem, in);
            chain = emit(t, OpType::Fp, load, chain);
        }
        return emit(t, OpType::Mem, chain);
    };

    std::size_t r = rows;
    std::size_t c = cols;
    for (int level = 0; level < levels; ++level) {
        // Row pass: L and H outputs over the level grid; inputs are the
        // current LL producers. The decimated geometry only matters through
        // the dependency counts, so we reference the window's tap pixels.
        std::vector<std::uint32_t> row_out(r * c, UINT32_MAX);  // L|H interleaved
        std::vector<std::uint32_t> window(static_cast<std::size_t>(taps));
        for (std::size_t i = 0; i < r; ++i) {
            for (std::size_t j = 0; j < c; ++j) {
                for (int n = 0; n < taps; ++n) {
                    const std::size_t src =
                        (2 * (j / 2) + static_cast<std::size_t>(n)) % c;
                    window[static_cast<std::size_t>(n)] = producer[i * c + src];
                }
                row_out[i * c + j] = convolve_output(window);
            }
        }
        // Column pass: the four bands; LL stores become next level producers.
        (void)emit(t, OpType::Branch, row_out[0]);  // level loop control
        std::vector<std::uint32_t> next(producer.size(), UINT32_MAX);
        for (std::size_t i = 0; i < r / 2; ++i) {
            for (std::size_t j = 0; j < c; ++j) {
                for (int n = 0; n < taps; ++n) {
                    const std::size_t src = (2 * i + static_cast<std::size_t>(n)) % r;
                    window[static_cast<std::size_t>(n)] = row_out[src * c + j];
                }
                const std::uint32_t store = convolve_output(window);
                // Half the columns are the L band; its low-pass outputs are
                // the next level's LL pixels (stored with the halved stride).
                if (j < c / 2) next[i * (c / 2) + j] = store;
            }
        }
        producer = std::move(next);
        r /= 2;
        c /= 2;
        if (r == 0 || c == 0) break;
    }
    return t;
}

std::vector<ExampleWorkload> example_suite() {
    // (count, {MEM, FP, INT}) rows; WL1/WL2 exactly as printed in §4.1.
    const auto wl = [](const char* name,
                       std::vector<std::pair<std::size_t, std::vector<double>>> rows) {
        ExampleWorkload w;
        w.name = name;
        for (auto& [c, ops] : rows) w.pis.push_back({c, std::move(ops)});
        return w;
    };
    return {
        wl("WL1", {{5, {1, 0, 1}}, {3, {0, 1, 0}}, {7, {1, 0, 0}}, {2, {0, 0, 1}}}),
        wl("WL2", {{2, {0, 1, 1}}, {3, {1, 1, 0}}, {7, {1, 0, 1}}, {5, {1, 1, 1}}}),
        wl("WL3", {{5, {3, 2, 1}}, {7, {4, 3, 0}}, {4, {2, 3, 1}}}),
        wl("WL4", {{3, {4, 3, 2}}, {7, {3, 4, 2}}, {6, {5, 2, 3}}}),
        wl("WL5", {{4, {1, 1, 2}}, {6, {2, 0, 1}}, {5, {1, 0, 2}}}),
        wl("WL6", {{8, {6, 5, 4}}, {2, {9, 8, 7}}, {5, {7, 6, 5}}}),
    };
}

std::vector<std::pair<const char*, Centroid>> published_nas_centroids() {
    // Appendix C Table 7 (Intops, Memops, FPops, Controlops, Branchops).
    return {
        {"embar", {81.344, 59.469, 14.369, 0.000009, 37.337}},
        {"mgrid", {33.857, 19.516, 0.7958, 0.04973, 9.22}},
        {"cgm", {4.475, 3.798, 0.84, 0.000012, 0.8463}},
        {"fftpde", {184.422, 128.224, 33.466, 10.8513, 57.765}},
        {"buk", {2.428, 1.735, 0.4502, 0.000001, 0.662}},
        {"applu", {1031.789, 559.136, 69.79, 0.04813, 413.972}},
        {"appsp", {8260.854, 5262.65, 604.75, 26.195, 3504.31}},
        {"appbt", {2788.824, 847.519, 49.73, 4.307, 1065.396}},
    };
}

}  // namespace wavehpc::workload
