#pragma once
// gtest prints every value parameter into the name ctest gives its case
// (`ctest -N`). A type without PrintTo prints as its raw bytes, struct
// padding included, so those names could differ between two builds of the
// same sources. Each parameter type therefore has a PrintTo; the boundary
// mode, shared by several suites, is printed here.

#include <ostream>

#include "core/boundary.hpp"

namespace wavehpc::core {

inline void PrintTo(BoundaryMode mode, std::ostream* os) {
    constexpr const char* kNames[] = {"Periodic", "Symmetric", "ZeroPad"};
    *os << kNames[static_cast<int>(mode)];
}

}  // namespace wavehpc::core
