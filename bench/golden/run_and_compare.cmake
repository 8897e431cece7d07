# Re-runs a pinned bench configuration and fails when its output
# drifts from the committed golden. Two modes: by default the golden
# is the windowed telemetry timeline JSONL (--telemetry-out); with
# -DSTDOUT=ON it is the bench's whole stdout. The outputs are fully
# deterministic (DESIGN.md §13): a run at a fixed seed prints no
# wall-clock fields, so any diff is a real model or format change. To
# regenerate after an intentional change, run the bench with the ARGS
# of bench/CMakeLists.txt:
#
#   build/bench/fig_fault_tail --width 8 --runtime-ms 300 --seed 7 \
#       --telemetry 25 \
#       --telemetry-out bench/golden/fig_fault_tail_telemetry.jsonl
#
#   build/bench/fig_frontier --rates 80000,240000 --runtime-ms 200 \
#       --seed 7 --streams 2 --telemetry 25 \
#       --telemetry-out bench/golden/fig_frontier_telemetry.jsonl
#
#   build/bench/table1_ssd_spec --runtime-ms 100 \
#       > bench/golden/table1_ssd_spec_stdout.txt
#
#   build/bench/pts_steady_state --rounds 4 --round-ms 50 \
#       > bench/golden/pts_steady_state_stdout.txt
#
#   build/bench/tail_at_scale --runtime-ms 100 --telemetry 10 \
#       > bench/golden/tail_at_scale_stdout.txt
#
#   build/bench/fig_fault_tail --width 8 --runtime-ms 300 --seed 7 \
#       --telemetry 25 --trace all --attribution \
#       > bench/golden/fig_fault_tail_stdout.txt
#
# Invoked by ctest with -DBIN=, -DARGS=, -DGOLDEN=, -DOUT= and, for
# the stdout mode, -DSTDOUT=ON (see bench/CMakeLists.txt).
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
if(STDOUT)
    set(what "stdout")
    execute_process(
        COMMAND ${BIN} ${bench_args}
        RESULT_VARIABLE run_rc
        OUTPUT_FILE ${OUT})
else()
    set(what "telemetry timeline")
    execute_process(
        COMMAND ${BIN} ${bench_args} --telemetry-out ${OUT}
        RESULT_VARIABLE run_rc
        OUTPUT_QUIET)
endif()
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${run_rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "${what} ${OUT} drifted from golden ${GOLDEN}; regenerate "
        "the golden if the change is intentional (command in "
        "bench/golden/run_and_compare.cmake)")
endif()
