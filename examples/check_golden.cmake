# ctest helper: runs EXAMPLE and requires its stdout to equal the GOLDEN
# file byte for byte. Goldens hold deterministic output only. Refresh one
# only for an intended output change, e.g.
#   ./build/examples/gridftp_tuning > examples/golden/gridftp_tuning.stdout
execute_process(COMMAND ${EXAMPLE}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with status ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${GOLDEN}; "
                      "it printed:\n${actual}")
endif()
