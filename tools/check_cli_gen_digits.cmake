# Fails unless the first data row of a `boxagg_cli gen` CSV writes its five
# numbers exactly: each field carries at least 10 significant digits and one
# carries 17 (max_digits10 of a double). The stream default of 6 would index
# rounded objects after a gen -> build round trip.
#
#   cmake -DCSV=<csv written by boxagg_cli gen> -P check_cli_gen_digits.cmake

file(STRINGS ${CSV} rows LIMIT_COUNT 2)
list(LENGTH rows count)
if(count LESS 2)
  message(FATAL_ERROR "${CSV} has no data row")
endif()
list(GET rows 1 row)
string(REPLACE "," ";" fields "${row}")
list(LENGTH fields nfields)
if(NOT nfields EQUAL 5)
  message(FATAL_ERROR "want 5 fields, got ${nfields}: ${row}")
endif()
set(max_digits 0)
foreach(field IN LISTS fields)
  # Significant digits: the mantissa's digits without sign, point, exponent
  # and leading zeros.
  string(REGEX REPLACE "[eE].*$" "" mantissa "${field}")
  string(REGEX REPLACE "[^0-9]" "" digits "${mantissa}")
  string(REGEX REPLACE "^0+" "" digits "${digits}")
  string(LENGTH "${digits}" n)
  if(n LESS 10)
    message(FATAL_ERROR "field '${field}' has ${n} significant digits: ${row}")
  endif()
  if(n GREATER max_digits)
    set(max_digits ${n})
  endif()
endforeach()
if(NOT max_digits EQUAL 17)
  message(FATAL_ERROR "no field has 17 significant digits: ${row}")
endif()
