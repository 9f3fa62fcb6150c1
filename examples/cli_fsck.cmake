# Driven by ctest (see CMakeLists.txt): builds the demo archive from scratch,
# then fsck must pass and have recomposed at least one MC index entry from
# the raw stream (VerifyMc's oracle is independent of the index build).
# Usage: cmake -DCLI=<caldera_cli> -DARCHIVE=<dir> -P <this file>
file(REMOVE_RECURSE ${ARCHIVE})
execute_process(COMMAND ${CLI} ${ARCHIVE} demo
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "demo: exit ${rc}\n${out}${err}")
endif()
execute_process(COMMAND ${CLI} ${ARCHIVE} fsck james
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "OK: .* [1-9][0-9]* MC entries")
  message(FATAL_ERROR "fsck james: exit ${rc}\n${out}${err}")
endif()
message(STATUS "${out}")
