# Re-runs a pinned bench telemetry configuration and fails when the
# windowed timeline JSONL drifts from the committed golden. The
# artifacts are fully deterministic (DESIGN.md §13): a run at a fixed
# seed emits no wall-clock fields, so any diff is a real model or
# format change. To regenerate after an intentional change, run the
# bench with the ARGS below plus --telemetry-out <golden path>:
#
#   build/bench/fig_fault_tail --width 8 --runtime-ms 300 --seed 7 \
#       --telemetry 25 \
#       --telemetry-out bench/golden/fig_fault_tail_telemetry.jsonl
#
#   build/bench/fig_frontier --rates 80000,240000 --runtime-ms 200 \
#       --seed 7 --streams 2 --telemetry 25 \
#       --telemetry-out bench/golden/fig_frontier_telemetry.jsonl
#
# Invoked by ctest with -DBIN=, -DARGS=, -DGOLDEN=, -DOUT= (see
# bench/CMakeLists.txt).
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${BIN} ${bench_args} --telemetry-out ${OUT}
    RESULT_VARIABLE run_rc
    OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${run_rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "telemetry timeline ${OUT} drifted from golden ${GOLDEN}; "
        "regenerate the golden if the change is intentional (command "
        "in bench/golden/run_and_compare.cmake)")
endif()
