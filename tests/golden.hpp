// golden.hpp — golden-file plumbing shared by the pinned-output tests.
//
// A golden file under tests/data/ holds bytes recorded from a reference
// build. check_or_regen() compares freshly produced output against it;
// with env AMF_REGEN_GOLDEN=1 it rewrites the file instead (and skips
// the test), which is how the reference bytes were captured. Binaries
// that include this header need AMF_TEST_DATA_DIR defined.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace amf::golden {

inline std::string golden_path(const std::string& name) {
  return std::string(AMF_TEST_DATA_DIR) + "/" + name;
}

inline void check_or_regen(const std::string& name,
                           const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("AMF_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with AMF_REGEN_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "output drifted from the pin " << name;
}

}  // namespace amf::golden
