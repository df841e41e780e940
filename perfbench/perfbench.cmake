# Build file of the benchmark harness. The harness links the ganopc libraries,
# so it is built inside the ganopc tree's own build, spliced in right after
# project(ganopc) through CMAKE_PROJECT_ganopc_INCLUDE:
#
#   cmake -S . -B .bench_build -G Ninja -DCMAKE_BUILD_TYPE=Release \
#         -DGANOPC_BUILD_TESTS=OFF -DGANOPC_BUILD_BENCH=OFF \
#         -DGANOPC_BUILD_EXAMPLES=OFF \
#         -DCMAKE_PROJECT_ganopc_INCLUDE=$PWD/perfbench/perfbench.cmake
#   cmake --build .bench_build --target perfbench_harness ganopc
#
# run.py does this itself before the first run. The target is defined at the
# end of the top-level directory so it gets the tree's compile options.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
function(perfbench_add_harness)
  add_executable(perfbench_harness "${PERFBENCH_DIR}/harness.cpp")
  target_compile_definitions(perfbench_harness PRIVATE
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  target_link_libraries(perfbench_harness PRIVATE
    ganopc_serve ganopc_engine ganopc_core ganopc_proc ganopc_mbopc ganopc_sraf
    ganopc_gds ganopc_ilt ganopc_metrics ganopc_litho ganopc_layout
    ganopc_geometry ganopc_nn ganopc_fft ganopc_common ganopc_obs_ledger
    ganopc_obs)
endfunction()
cmake_language(DEFER CALL perfbench_add_harness)
