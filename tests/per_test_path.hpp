// Per-test-case file names for fixtures that touch the filesystem.
//
// gtest_discover_tests registers every test case as its own ctest entry, and
// `ctest -j` runs those processes in parallel in one working directory. A
// path shared by two cases therefore races: one case's TearDown deletes the
// file or directory the other is still using. Name scratch paths with this
// helper instead of a literal.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

namespace atm {

/// "<prefix>_<Suite>_<Case>" for the running test case, with the '/' of
/// parameterized names replaced so the result is a single path component.
inline std::string per_test_name(std::string_view prefix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(prefix) + "_" + info->test_suite_name() + "_" + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return name;
}

}  // namespace atm
