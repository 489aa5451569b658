// test_tmpdir.hpp — per-process scratch paths for tests that write files.
//
// Every path handed out lies inside one directory made with mkdtemp under
// gtest's TempDir() the first time a test asks, so two test binaries, or
// two build trees running the same suite, never write the same WAL,
// socket or snapshot. The directory and everything in it are removed when
// the process exits normally (a forked child that leaves through _exit
// does not remove it).
#pragma once

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace amf::test {

/// This process's scratch directory, with a trailing '/'.
inline const std::string& process_tmp_dir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern = ::testing::TempDir() + "amf_test_XXXXXX";
      if (::mkdtemp(pattern.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " +
                                 ::testing::TempDir());
      path = pattern + "/";
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// An empty directory `name` (no trailing '/') in the scratch directory;
/// whatever an earlier call left there is removed first.
inline std::string fresh_dir(const std::string& name) {
  const std::string dir = process_tmp_dir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A path `name` in the scratch directory with no file at it.
inline std::string fresh_path(const std::string& name) {
  const std::string path = process_tmp_dir() + name;
  std::filesystem::remove(path);
  return path;
}

}  // namespace amf::test
