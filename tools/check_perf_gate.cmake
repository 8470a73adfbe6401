# Proves perf_gate.py rejects what it is meant to reject, on copies of a
# committed trajectory file: the unchanged copy must pass, and a copy with
# first_greater's speedup set to 0.5 or with one logical_per_round raised by
# 1 must each fail.
#
#   cmake -DPYTHON=<python3> -DGATE=<perf_gate.py>
#         -DBASELINE=<results/BENCH_descent.json> -DWORK_DIR=<scratch dir>
#         -P check_perf_gate.cmake

file(READ ${BASELINE} base)

function(gate name content want_pass)
  set(fresh ${WORK_DIR}/${name}.json)
  file(WRITE ${fresh} "${content}")
  execute_process(
    COMMAND ${PYTHON} ${GATE} --baseline ${BASELINE} --fresh ${fresh}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    RESULT_VARIABLE rc)
  if(want_pass AND NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_gate rejected ${fresh}:\n${out}")
  elseif(NOT want_pass AND rc EQUAL 0)
    message(FATAL_ERROR "perf_gate passed ${fresh}:\n${out}")
  endif()
endfunction()

string(REGEX REPLACE "(\"kernel\":\"first_greater\"[^\n]*\"speedup\":)[0-9.]+"
       "\\10.5" collapsed "${base}")
string(REGEX MATCH "\"logical_per_round\":([0-9]+)" _ "${base}")
math(EXPR more "${CMAKE_MATCH_1} + 1")
string(REPLACE "\"logical_per_round\":${CMAKE_MATCH_1},"
               "\"logical_per_round\":${more}," drifted "${base}")
if(collapsed STREQUAL base OR drifted STREQUAL base)
  message(FATAL_ERROR "${BASELINE} lacks a first_greater speedup or a "
                      "logical_per_round to alter")
endif()

gate(unchanged "${base}" TRUE)
gate(speedup_collapse "${collapsed}" FALSE)
gate(logical_drift "${drifted}" FALSE)
