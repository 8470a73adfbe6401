# Runs boxagg_stats and fails unless it exits 0 (its own coverage identity
# and eviction invariant hold), its JSON report carries the six I/O and query
# keys with io.evictions >= io.dirty_writebacks, and, when a trace is asked
# for, the trace file is a non-empty chrome://tracing document of complete
# ("X") events.
#
#   cmake -DSTATS=<path to boxagg_stats> -DBACKEND=<ecdfu|ecdfq|bat|replica>
#         -DTRACE=<trace output path> -P check_stats_json.cmake
#
# With -DJSON=<path> the report goes to that file instead of stdout
# (--json PATH). BACKEND and TRACE may be left out: the tool then runs its
# default backend at a small scale and writes no trace.

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
if(DEFINED TRACE)
  file(REMOVE ${TRACE})
  list(APPEND args --trace ${TRACE})
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

if(NOT DEFINED TRACE)
  return()
endif()
file(READ ${TRACE} trace)
string(JSON count LENGTH "${trace}" traceEvents)
if(count EQUAL 0)
  message(FATAL_ERROR "${TRACE} holds no trace events")
endif()
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON event GET "${trace}" traceEvents ${i})
  string(JSON ph GET "${event}" ph)
  string(JSON cat GET "${event}" cat)
  if(NOT ph STREQUAL "X" OR NOT cat STREQUAL "boxagg")
    message(FATAL_ERROR "event ${i} is not a complete boxagg span: ${event}")
  endif()
  expect_type("event ${i}" STRING "${event}" name)
  foreach(key ts dur pid tid)
    expect_type("event ${i}" NUMBER "${event}" ${key})
  endforeach()
  expect_type("event ${i}" NUMBER "${event}" args depth)
endforeach()
