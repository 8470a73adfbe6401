# Runs boxagg_stats with --json - and fails unless it exits 0 and its JSON
# line (the last line of stdout) carries every key that CI's observability
# gate reads.
#
#   cmake -DSTATS=<path to boxagg_stats> -P check_stats_json.cmake

execute_process(
  COMMAND ${STATS} --backend bat --n 2000 --queries 64 --batch 16
          --threads 2 --json -
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "boxagg_stats exited ${rc}:\n${out}")
endif()
string(STRIP "${out}" out)
string(REGEX MATCH "[^\n]*$" json "${out}")
foreach(key io.logical_reads io.physical_reads io.evictions
            io.dirty_writebacks query.border_probes query.level0.node_visits)
  string(REPLACE "." "\\." pattern "\"${key}\":[0-9]")
  if(NOT json MATCHES "^{.*${pattern}")
    message(FATAL_ERROR "key ${key} missing from the JSON line:\n${json}")
  endif()
endforeach()
