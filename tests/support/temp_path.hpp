// Scratch file names for tests. ctest runs every gtest case as its own
// process (ctest -j runs several at once), and the suites of two builds may
// run at the same time on one host, so a fixed file name is written and
// deleted by several processes at once. temp_path() names a file in
// testing::TempDir() after the running test and the process id.
#pragma once

#include <dirent.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

namespace ab::testing {

/// TempDir()/<Suite>.<Test>.<pid>.<stem>: distinct for every test case and
/// process, and the same for all calls with one stem inside a test.
inline std::string temp_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : std::string("no_test");
  for (char& c : test)
    if (c == '/') c = '_';  // parameterized names hold '/'
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + test + "." + std::to_string(::getpid()) + "." + stem;
}

/// Tmp siblings of `path` (anything named <base>.tmp*) left in its
/// directory — the atomic writer must never leave one behind.
inline std::vector<std::string> stray_tmps(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = path.substr(0, slash);
  const std::string prefix = path.substr(slash + 1) + ".tmp";
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d))
    if (std::strncmp(e->d_name, prefix.c_str(), prefix.size()) == 0)
      out.push_back(dir + "/" + e->d_name);
  ::closedir(d);
  return out;
}

}  // namespace ab::testing
