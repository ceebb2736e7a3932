// Process-wide count of global operator new calls in the test binary,
// kept by the replacement allocation functions in alloc_count.cc.
#pragma once

#include <cstddef>

namespace faultlab::testing_support {

/// Number of operator new / new[] calls so far.
std::size_t allocation_count() noexcept;

}  // namespace faultlab::testing_support
