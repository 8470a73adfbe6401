# Runs a bench and fails unless it exits 0 and its "BASELINE" stdout lines
# equal the checked-in baseline file line for line.
#
#   cmake -DBENCH=<bench binary> -DBASELINE=<baseline .txt>
#         -DBENCH_ENV="BOXAGG_N=20000;..." -P diff_baseline.cmake

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${BENCH_ENV} ${BENCH}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}:\n${out}")
endif()
string(REGEX MATCHALL "BASELINE [^\n]*" lines "${out}")
string(JOIN "\n" got ${lines})
file(READ ${BASELINE} want)
string(STRIP "${want}" want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR
          "BASELINE lines differ from ${BASELINE}\nwant:\n${want}\ngot:\n${got}")
endif()
