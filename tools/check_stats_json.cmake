# Runs boxagg_stats and fails unless it exits 0 (its own coverage identity
# and eviction invariant hold) and its JSON report carries the six I/O and
# query keys with io.evictions >= io.dirty_writebacks.
#
#   cmake -DSTATS=<path to boxagg_stats> -DBACKEND=<ecdfu|ecdfq|bat|replica>
#         -P check_stats_json.cmake
#
# With -DJSON=<path> the report goes to that file instead of stdout
# (--json PATH). BACKEND may be left out: the tool then runs its default
# backend at a small scale.

if(DEFINED BACKEND)
  set(args --backend ${BACKEND} --n 20000 --queries 256 --batch 64)
else()
  set(args --n 2000 --queries 64 --batch 16)
endif()
list(APPEND args --threads 2)
if(DEFINED JSON)
  file(REMOVE ${JSON})
  list(APPEND args --json ${JSON})
else()
  list(APPEND args --json -)
endif()
execute_process(
  COMMAND ${STATS} ${args}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "boxagg_stats exited ${rc}:\n${out}")
endif()
if(DEFINED JSON)
  file(READ ${JSON} out)
endif()
string(STRIP "${out}" out)
string(REGEX MATCH "[^\n]*$" json "${out}")

# string(JSON) fails the script on a malformed document or a missing key.
function(expect_type what want json)
  string(JSON type TYPE "${json}" ${ARGN})
  if(NOT type STREQUAL want)
    message(FATAL_ERROR "${what}: ${ARGN} is ${type}, not ${want}:\n${json}")
  endif()
endfunction()

foreach(key io.logical_reads io.physical_reads io.evictions
            io.dirty_writebacks query.border_probes query.level0.node_visits)
  expect_type("JSON line" NUMBER "${json}" ${key})
endforeach()
string(JSON evictions GET "${json}" io.evictions)
string(JSON writebacks GET "${json}" io.dirty_writebacks)
if(evictions LESS writebacks)
  message(FATAL_ERROR
          "io.evictions ${evictions} < io.dirty_writebacks ${writebacks}")
endif()

