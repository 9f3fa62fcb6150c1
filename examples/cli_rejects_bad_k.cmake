# Driven by ctest (see CMakeLists.txt): every malformed --k value must be
# rejected through the usage message with exit code 2, before any stream
# is opened. Usage: cmake -DCLI=<caldera_cli> -DARCHIVE=<dir> -P <this file>
foreach(k abc -1 +3 3x 18446744073709551616)
  execute_process(
    COMMAND ${CLI} ${ARCHIVE} query james "Q(Corridor)" --k=${k}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: caldera_cli")
    message(FATAL_ERROR "--k=${k}: exit ${rc}\n${out}${err}")
  endif()
endforeach()
