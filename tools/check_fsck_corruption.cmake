# Corrupts a copy of a boxagg_cli-built bag and fails unless boxagg_fsck
# rejects it with exit status 1, naming the damaged page. The damaged bytes
# are 8 payload bytes of physical page 2: boxagg_cli writes 8192-byte pages
# (kDefaultPageSize) in slots with a 32-byte checksum header, and its
# single-commit build writes every physical page past the two superblock
# slots as a page image or map page of the committed generation.
#
#   cmake -DFSCK=<boxagg_fsck> -DBAG=<index.bag> -DCOPY=<scratch.bag>
#         -P check_fsck_corruption.cmake

set(page 2)
math(EXPR offset "${page} * (8192 + 32) + 32")

file(SIZE ${BAG} bag_bytes)
if(bag_bytes LESS_EQUAL offset)
  message(FATAL_ERROR "${BAG} has ${bag_bytes} bytes, no page ${page}")
endif()
file(COPY_FILE ${BAG} ${COPY})
set(junk ${COPY}.junk)
file(WRITE ${junk} "CORRUPT!")
execute_process(
  COMMAND dd if=${junk} of=${COPY} bs=1 seek=${offset} conv=notrunc
  RESULT_VARIABLE dd_rc
  ERROR_QUIET)
file(REMOVE ${junk})
if(NOT dd_rc EQUAL 0)
  message(FATAL_ERROR "dd could not patch ${COPY} (exit ${dd_rc})")
endif()

execute_process(
  COMMAND ${FSCK} ${COPY}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
file(REMOVE ${COPY})
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "boxagg_fsck exited ${rc} on a bag with page ${page} corrupted "
    "(expected 1):\n${out}${err}")
endif()
if(NOT err MATCHES "physical page ${page} ")
  message(FATAL_ERROR
    "boxagg_fsck did not name physical page ${page}:\n${out}${err}")
endif()
