// Counting global allocator for the allocation-free hot-path tests.
//
// Linking counting_allocator.cpp into a test binary replaces the global
// operator new/delete with malloc/free plus a relaxed counter, so a test can
// assert that a steady-state loop never touches the heap. Keep it out of the
// other test binaries: the counter would tax every allocation they make.
//
// The replacements live in their own translation unit on purpose. Defined
// in the test's own file, GCC inlines the sized delete (and its std::free)
// into std::vector destructors whose storage came from operator new, and
// -Wmismatched-new-delete fires on the pair.
#pragma once

#include <cstdint>

namespace rejuv::test {

/// Heap allocations (operator new / new[] calls) since process start.
std::uint64_t allocations();

}  // namespace rejuv::test
