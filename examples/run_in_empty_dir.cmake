# Driven by ctest (see CMakeLists.txt): runs an example on an archive
# directory emptied first, so an archive an older build left there (perhaps
# in an older on-disk format) never decides the result.
# Usage: cmake -DEXAMPLE=<binary> -DDIR=<dir> -P <this file>
file(REMOVE_RECURSE ${DIR})
execute_process(COMMAND ${EXAMPLE} ${DIR} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} ${DIR}: exit ${rc}")
endif()
