# Run one program and check that it exits with a given code.
#
#   cmake -DEXE=<program> -DARGS=<arg;arg...> -DEXPECTED=<code> -P ExpectExitCode.cmake
#
# Used to pin that a bad flag value is rejected up front (the bench runner
# exits 2 on a ConfigError) rather than crashing or running.
foreach(var EXE EXPECTED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ExpectExitCode.cmake: ${var} is not set")
  endif()
endforeach()

execute_process(COMMAND "${EXE}" ${ARGS} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECTED}")
  message(FATAL_ERROR
    "${EXE} ${ARGS} exited with ${rc}, expected ${EXPECTED}\n${out}${err}")
endif()
