# Run one program and compare its stdout with a golden file, byte for byte.
#
#   cmake -DEXE=<program> -DGOLDEN=<file> -DACTUAL=<file> -P RunAndCompare.cmake
#
# The program must exit 0. Its stdout is written to ACTUAL, so a failing
# run leaves the output beside the build for `diff -u GOLDEN ACTUAL`.
foreach(var EXE GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "RunAndCompare.cmake: ${var} is not set")
  endif()
endforeach()

execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
file(WRITE "${ACTUAL}" "${actual}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
                        "${ACTUAL}" RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
    "stdout of ${EXE} differs from ${GOLDEN}; it was written to ${ACTUAL}.\n"
    "If the change is intended, copy ${ACTUAL} over ${GOLDEN}.")
endif()
