#pragma once
// Poisons a BufferArena's free lists so a test can show that a path writes
// every element of the buffers it checks out: a value read before it is
// written, or never written, comes out as NaN and fails an EXPECT_EQ.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "svc/arena.hpp"

namespace wavehpc::testing {

/// Obtain `per_class` whole slabs of every size class up to the one that
/// holds `max_floats`, fill them with quiet NaN, and pool them again; the
/// next checkouts of those classes hand them out first.
inline void prime_with_nan(svc::BufferArena& arena, std::size_t max_floats,
                           std::size_t per_class) {
    std::vector<std::vector<float>> slabs;
    const std::size_t last = arena.class_for(max_floats);
    for (std::size_t cls = 0; cls <= last && cls < arena.config().slab_classes; ++cls) {
        for (std::size_t i = 0; i < per_class; ++i) {
            slabs.push_back(arena.obtain(arena.class_floats(cls)));
            std::fill(slabs.back().begin(), slabs.back().end(),
                      std::numeric_limits<float>::quiet_NaN());
        }
    }
    for (auto& slab : slabs) arena.recycle(std::move(slab));
}

}  // namespace wavehpc::testing
