# Runs boxagg_fsck on a path that does not exist and fails unless it exits
# non-zero with "No such file" in its message, prints no report summary
# (nothing was read), and leaves no file behind.
#
#   cmake -DFSCK=<boxagg_fsck> -DMISSING=<path> -P check_fsck_missing.cmake

file(REMOVE ${MISSING})
execute_process(
  COMMAND ${FSCK} ${MISSING}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "boxagg_fsck exited 0 on missing ${MISSING}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "No such file")
  message(FATAL_ERROR
    "boxagg_fsck did not report a missing file:\n${out}${err}")
endif()
if("${out}" MATCHES "verified")
  message(FATAL_ERROR
    "boxagg_fsck printed a summary for an unread file:\n${out}")
endif()
if(EXISTS ${MISSING})
  file(REMOVE ${MISSING})
  message(FATAL_ERROR "boxagg_fsck created ${MISSING}")
endif()
