// The lane-width test seam. A check written once as a function template
// over the lane width W runs as two tests: Suite.Name at width 2 (the rows
// as the test is compiled, the baseline ISA) and Suite.NameWidth4 at width
// 4, which the check reaches through lanes::at_width<4>, the kernel's AVX2
// entry; the width-4 test is skipped on a CPU without AVX2.
#pragma once

#include <gtest/gtest.h>

#include "physics/lanes.hpp"

#define AB_LANE_WIDTH_TEST(suite, name)                                  \
  template <int W>                                                       \
  void suite##_##name##_check();                                         \
  TEST(suite, name) { suite##_##name##_check<2>(); }                     \
  TEST(suite, name##Width4) {                                            \
    if (::ab::lanes::max_width() < 4) GTEST_SKIP() << "no AVX2 on this CPU"; \
    suite##_##name##_check<::ab::lanes::kWidest>();                      \
  }                                                                      \
  template <int W>                                                       \
  void suite##_##name##_check()
