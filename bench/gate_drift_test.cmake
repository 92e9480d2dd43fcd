# ctest bench_gate_drift: copy BASELINE to DRIFTED with every table1
# "components" count altered (a 1 is prepended), run
#   RUNNER --smoke --suite table1 --check DRIFTED
# and require exit status 1 with the drifted field named on stderr.
file(READ "${BASELINE}" text)
string(REPLACE "\"components\":" "\"components\":1" drifted "${text}")
if(drifted STREQUAL text)
  message(FATAL_ERROR "${BASELINE} has no table1 \"components\" count")
endif()
file(WRITE "${DRIFTED}" "${drifted}")
execute_process(COMMAND "${RUNNER}" --smoke --suite table1 --check "${DRIFTED}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE errors)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "bench_runner exited ${status}, expected 1:\n${errors}")
endif()
if(NOT errors MATCHES "GATE FAIL table1/cktb/components")
  message(FATAL_ERROR "the altered count was not reported:\n${errors}")
endif()
