# Golden-output check, run as a CTest script:
#   cmake -DBIN=<program> "-DARGS=<args>" -DGOLDEN=<file> -P CompareOutput.cmake
# Runs BIN with ARGS and fails unless the program exits 0 and its stdout
# equals GOLDEN byte for byte; on a mismatch it prints a unified diff.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
  file(WRITE ${actual_file} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${actual_file})
  message(FATAL_ERROR "output of ${BIN} ${ARGS} differs from ${GOLDEN} "
                      "(actual output kept in ${actual_file})")
endif()
