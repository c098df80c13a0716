# Adds the bench_ivr target to the repository's own build without editing
# it:
#
#   cmake -S . -B build \
#       -DCMAKE_PROJECT_ivr_INCLUDE=$PWD/bench/ivr_bench/bench_ivr.cmake
#   cmake --build build --target bench_ivr     # build/bench_ivr
#
# CMake includes this file right after the top-level project(ivr) call. The
# target is defined at the end of the top-level CMakeLists.txt, so it takes
# every flag and option set there (-Werror, IVR_OBS_OFF, IVR_SANITIZE) like
# the bench_*.cc binaries in bench/.
set(IVR_BENCH_IVR_DIR ${CMAKE_CURRENT_LIST_DIR})

function(ivr_add_bench_ivr)
  add_executable(bench_ivr ${IVR_BENCH_IVR_DIR}/bench_ivr.cc)
  target_include_directories(bench_ivr PRIVATE ${IVR_BENCH_IVR_DIR}/..)
  target_link_libraries(bench_ivr PRIVATE ivr_workload)
endfunction()

cmake_language(DEFER CALL ivr_add_bench_ivr)
