# Attaches the benchmark package to the repository's own build without
# editing any repository build file. run.py configures the repository
# root with -DCMAKE_PROJECT_INCLUDE=<this file>; CMake includes it right
# after the root project() call, and the deferred include below defines
# the benchmark target once the root CMakeLists.txt has set its options
# and defined every library target.
include_guard(GLOBAL)
# Deferred arguments expand when the call runs, so pin the path now.
set(PERFBENCH_TARGETS "${CMAKE_CURRENT_LIST_DIR}/targets.cmake")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
    CALL include "${PERFBENCH_TARGETS}")
