// Byte-level CSR comparison for graphs that must be identical in both
// adjacency directions (compacted evolving graphs vs cold canonical
// builds).

#ifndef PREDICT_TESTS_CSR_EQUAL_H_
#define PREDICT_TESTS_CSR_EQUAL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "graph/graph.h"

namespace predict::testing {

/// Success iff `a` and `b` have equal out_offsets, out_targets,
/// out_weights, in_offsets, in_sources and is_weighted; otherwise names
/// the first array that differs.
inline ::testing::AssertionResult SameCsr(const Graph& a, const Graph& b) {
  const auto same = [](auto x, auto y) {
    return std::ranges::equal(x, y, [](const auto& l, const auto& r) {
      return std::memcmp(&l, &r, sizeof(l)) == 0;
    });
  };
  if (a.is_weighted() != b.is_weighted()) {
    return ::testing::AssertionFailure() << "is_weighted differs";
  }
  if (!same(a.out_offsets(), b.out_offsets())) {
    return ::testing::AssertionFailure() << "out_offsets differ";
  }
  if (!same(a.out_targets(), b.out_targets())) {
    return ::testing::AssertionFailure() << "out_targets differ";
  }
  if (!same(a.out_weights(), b.out_weights())) {
    return ::testing::AssertionFailure() << "out_weights differ";
  }
  if (!same(a.in_offsets(), b.in_offsets())) {
    return ::testing::AssertionFailure() << "in_offsets differ";
  }
  if (!same(a.in_sources(), b.in_sources())) {
    return ::testing::AssertionFailure() << "in_sources differ";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace predict::testing

#endif  // PREDICT_TESTS_CSR_EQUAL_H_
