# The standing benchmark driver. Included through attach.cmake at the
# end of a Release configuration of the repository root (see run.py),
# so it compiles with exactly the root's options and flags.
set(_perfbench_dir "${CMAKE_CURRENT_LIST_DIR}")
add_executable(pcnn_perfbench
    ${_perfbench_dir}/src/main.cc
    ${_perfbench_dir}/src/common.cc
    ${_perfbench_dir}/src/trace.cc
    ${_perfbench_dir}/src/serve_mixed.cc
    ${_perfbench_dir}/src/batch_offline.cc
    ${_perfbench_dir}/src/paper_sim.cc
)
target_link_libraries(pcnn_perfbench PRIVATE pcnn_serve pcnn_core)

# Recorded in every output header.
string(TOUPPER "${CMAKE_BUILD_TYPE}" _perfbench_cfg)
target_compile_definitions(pcnn_perfbench PRIVATE
    PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
    PERFBENCH_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${_perfbench_cfg}}"
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    PERFBENCH_DCHECKS="${PCNN_DCHECKS}"
    PERFBENCH_COUNT_ALLOCS="${PCNN_COUNT_ALLOCS}")
