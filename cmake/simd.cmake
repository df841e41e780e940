# ganopc_avx2_source(<file>...): mark translation units that hold the AVX2+FMA
# arm of a kernel family. They get -mavx2 -mfma on x86 with GCC/Clang; on any
# other target the files still compile (their #if __AVX2__ guard degrades them
# to scalar forwarders), so the build never depends on the host ISA. The
# flags are decided inside the function: a variable set at include time would
# be visible only in the first directory that includes this file.
include_guard(GLOBAL)

function(ganopc_avx2_source)
  if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang" AND
     CMAKE_SYSTEM_PROCESSOR MATCHES "x86_64|amd64|AMD64|i[3-6]86")
    set_source_files_properties(${ARGN} PROPERTIES COMPILE_OPTIONS "-mavx2;-mfma")
  endif()
endfunction()
