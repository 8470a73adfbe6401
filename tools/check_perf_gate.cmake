# Proves perf_gate.py rejects what it is meant to reject, on copies of
# committed trajectory files: the unchanged copies must pass; a descent
# copy with first_greater's speedup set to 0.5 or with one
# logical_per_round raised by 1 must each fail; and so must a copy of the
# first A/B record where B wins only 7 of its pairs, and one where B beats
# A in every pair but by so little that B's median stays inside A's IQR.
#
#   cmake -DPYTHON=<python3> -DGATE=<perf_gate.py>
#         -DBASELINE=<results/BENCH_descent.json>
#         -DAB=<results/BENCH_ab.json> -DWORK_DIR=<scratch dir>
#         -P check_perf_gate.cmake

file(READ ${BASELINE} base)

# gate(<name> <content> <want_pass> [<reason>]): a failing run must print
# <reason>, so it fails for the rule under test.
function(gate name content want_pass)
  set(fresh ${WORK_DIR}/${name}.json)
  file(WRITE ${fresh} "${content}")
  if(name MATCHES "^ab_")
    set(args --ab ${fresh})
  else()
    set(args --baseline ${BASELINE} --fresh ${fresh})
  endif()
  execute_process(
    COMMAND ${PYTHON} ${GATE} ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    RESULT_VARIABLE rc)
  if(want_pass AND NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_gate rejected ${fresh}:\n${out}")
  elseif(NOT want_pass AND rc EQUAL 0)
    message(FATAL_ERROR "perf_gate passed ${fresh}:\n${out}")
  elseif(NOT want_pass AND ARGC GREATER 3 AND NOT out MATCHES "${ARGV3}")
    message(FATAL_ERROR "perf_gate rejected ${fresh}, but not with "
                        "\"${ARGV3}\":\n${out}")
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

# Copies of the first A/B record with B's side of its pairs rewritten and
# its summary (B's wins and median) re-derived, so only the claim rule can
# reject them.
set(rewrite [=[
import json, statistics, sys
rec = json.loads(open(sys.argv[1]).readline())
lower = rec["better"] == "lower"
worse, hair = (1.001, 1 - 1e-6) if lower else (0.999, 1 + 1e-6)
pairs = rec["pairs"]
for i, p in enumerate(pairs):
    if sys.argv[2] == "inside_iqr":
        p["b"] = p["a"] * hair  # B a hair better in every pair
    elif i < len(pairs) - 7:
        p["b"] = p["a"] * worse  # B loses all but 7 pairs
rec["b_wins"] = sum((p["b"] < p["a"]) if lower else (p["b"] > p["a"])
                    for p in pairs)
rec["b_median"] = statistics.median(p["b"] for p in pairs)
print(json.dumps(rec))
]=])
file(READ ${AB} ab)
gate(ab_unchanged "${ab}" TRUE)
foreach(kind seven_wins inside_iqr)
  execute_process(
    COMMAND ${PYTHON} -c "${rewrite}" ${AB} ${kind}
    OUTPUT_VARIABLE ab_${kind}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot rewrite ${AB} (${kind})")
  endif()
endforeach()
gate(ab_seven_wins "${ab_seven_wins}" FALSE "B wins 7/")
gate(ab_inside_iqr "${ab_inside_iqr}" FALSE "is not (lower|higher) than A's IQR")
