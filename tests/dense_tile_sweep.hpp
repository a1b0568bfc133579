#pragma once

// Bit-exact sweep of one detail::denseTile instance against the scalar
// oracle of conv_reference.hpp. Shared by the float instances
// (test_conv_stack) and the double ones (test_network).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "conv_reference.hpp"

namespace tkmc::testref {

template <typename T>
using DenseTileFn = void (*)(const T* x, const T* w, const T* b, T* y,
                             int rows, int in, int out, bool relu);

/// Runs `kernel` over every (in, out) pair of widths that hit each path
/// (full slabs, leftover columns, out = 1) and row counts that hit each
/// row block and tail, ReLU on and off. Exact-size input buffers let
/// ASan catch over-reads; sentinel cells past the output catch
/// over-writes.
template <typename T>
void expectDenseTileMatchesReference(DenseTileFn<T> kernel) {
  using Bits =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  const int widths[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 33, 64, 128};
  const int rowCounts[] = {0,  1,  2,  3,  4,  5,  7,   8,  9,
                           31, 32, 33, 63, 64, 65, 235, 531};
  constexpr std::size_t kGuard = 17;
  constexpr T kSentinel = T(1234.5);
  Rng rng(41);
  auto fill = [&rng](std::vector<T>& v, double scale) {
    for (T& f : v) f = static_cast<T>((rng.uniform() * 2 - 1) * scale);
  };
  for (int in : widths)
    for (int out : widths) {
      std::vector<T> w(static_cast<std::size_t>(in) * out);
      std::vector<T> b(static_cast<std::size_t>(out));
      fill(w, 1.0);
      fill(b, 0.5);
      for (int rows : rowCounts) {
        std::vector<T> x(static_cast<std::size_t>(rows) * in);
        fill(x, 1.0);
        const std::size_t n = static_cast<std::size_t>(rows) * out;
        for (bool relu : {false, true}) {
          SCOPED_TRACE(::testing::Message() << "in " << in << " out " << out
                                            << " rows " << rows << " relu "
                                            << relu);
          std::vector<T> expected(n);
          convLayer(x.data(), w.data(), b.data(), expected.data(), rows, in,
                    out, relu);
          std::vector<T> actual(n + kGuard, kSentinel);
          kernel(x.data(), w.data(), b.data(), actual.data(), rows, in, out,
                 relu);
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(std::bit_cast<Bits>(actual[i]),
                      std::bit_cast<Bits>(expected[i]))
                << "index " << i;
          for (std::size_t g = n; g < n + kGuard; ++g)
            ASSERT_EQ(actual[g], kSentinel) << "guard cell " << g - n;
        }
      }
    }
}

}  // namespace tkmc::testref
