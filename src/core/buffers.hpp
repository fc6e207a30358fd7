#pragma once
// Pluggable float-buffer supply for the decomposition paths.
//
// The decompose loops allocate two kinds of buffers per level: transient
// row-pass scratch (freed at the end of the level) and the subband planes
// that outlive the call inside the returned Pyramid. Routing both through a
// FloatBufferSource lets a caller substitute a recycling pool (svc's
// BufferArena) without the core layer depending on the service layer; the
// default HeapBufferSource is plain new/delete.
//
// Contract:
//   * obtain(n) returns a vector with size() == n and unspecified contents.
//     Every kernel pass writes each element of its outputs, so no caller
//     asks for cleared memory.
//   * recycle(v) takes back a buffer the caller no longer needs. The
//     source may pool the capacity or free it; `v` is consumed either way.
//   * Both methods must be callable from any thread concurrently
//     (HeapBufferSource is trivially so; pooling sources synchronize).

#include <cstddef>
#include <utility>
#include <vector>

#include "core/image.hpp"

namespace wavehpc::core {

class FloatBufferSource {
public:
    virtual ~FloatBufferSource() = default;

    [[nodiscard]] virtual std::vector<float> obtain(std::size_t n) = 0;
    virtual void recycle(std::vector<float>&& buf) = 0;
};

/// The identity source: plain heap vectors, nothing pooled.
class HeapBufferSource final : public FloatBufferSource {
public:
    [[nodiscard]] std::vector<float> obtain(std::size_t n) override {
        return std::vector<float>(n);
    }
    void recycle(std::vector<float>&& buf) override {
        std::vector<float> drop = std::move(buf);  // free now
    }
};

/// Build an ImageF over a buffer from `src` (size rows*cols, contents
/// unspecified: the caller writes every element).
[[nodiscard]] inline ImageF obtain_image(FloatBufferSource& src, std::size_t rows,
                                         std::size_t cols) {
    return ImageF(rows, cols, src.obtain(rows * cols));
}

}  // namespace wavehpc::core
