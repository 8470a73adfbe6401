# Runs crash_torture twice at one seed and fails unless both runs exit 0
# and print byte-identical output (stdout and stderr together).
#
#   cmake -DTORTURE=<path to crash_torture> -P check_torture_determinism.cmake

foreach(run a b)
  execute_process(
    COMMAND ${TORTURE} --iters 100 --seed 42 --verbose
    OUTPUT_VARIABLE out_${run}
    ERROR_VARIABLE out_${run}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "crash_torture run ${run} exited ${rc}:\n${out_${run}}")
  endif()
endforeach()
if(NOT out_a STREQUAL out_b)
  message(FATAL_ERROR
          "two crash_torture runs at seed 42 differ\nfirst:\n${out_a}\n"
          "second:\n${out_b}")
endif()
