# Runs a bench with arguments it must refuse, and fails unless the
# bench exits 1 with a `fatal:` line that contains EXPECT (a plain
# string, matched as a regex). Invoked by ctest with -DBIN=, -DARGS=,
# -DEXPECT= (see bench/CMakeLists.txt).
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${BIN} ${bench_args}
    RESULT_VARIABLE run_rc
    OUTPUT_QUIET
    ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 1)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${run_rc}, not 1")
endif()
if(NOT run_err MATCHES "fatal: [^\n]*${EXPECT}")
    message(FATAL_ERROR
        "${BIN} ${ARGS} printed no fatal line naming ${EXPECT}:\n"
        "${run_err}")
endif()
