/// Per-process temp-file names for tests.
///
/// ctest runs a gtest case both as its own discovered test and inside the
/// `*_smoke` aliases, possibly at the same time under `ctest -j`.  A fixed
/// file name under `testing::TempDir()` would then be written and removed by
/// two processes at once; deriving it from the running test's name plus the
/// pid keeps every process on its own file.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace qoc::testing_support {

/// `TempDir()/qoc_<Suite>.<Test>_<pid>_<suffix>`, for the test now running.
inline std::string temp_path(const std::string& suffix) {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "." + info->name();
    for (char& c : name) {
        if (c == '/') c = '_';  // parameterized names carry slashes
    }
    return ::testing::TempDir() + "qoc_" + name + "_" + std::to_string(::getpid()) + "_" +
           suffix;
}

}  // namespace qoc::testing_support
