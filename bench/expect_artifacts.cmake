# Runs a bench with every artifact and detail flag it acts on, and
# fails unless it exits 0, writes every artifact non-empty (the metrics
# JSON with its system_metrics and telemetry members and the span
# counters of a traced run) and prints every detail block. Invoked by
# ctest with -DBIN=, -DARGS= (the tiny run), -DOUT= (artifact path
# prefix) and -DPER_DEVICE=ON|OFF (see bench/CMakeLists.txt).
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
set(files ${OUT}.trace.json ${OUT}.jsonl ${OUT}.csv ${OUT}.metrics.json)
file(REMOVE ${files})
set(blocks "CPU utilisation by group:" "latency attribution:")
if(PER_DEVICE)
    list(APPEND bench_args --per-device)
    list(APPEND blocks "per-device ladder (usec):")
endif()
execute_process(
    COMMAND ${BIN} ${bench_args} --report --attribution
        --trace-out ${OUT}.trace.json --telemetry-out ${OUT}.jsonl
        --telemetry-csv ${OUT}.csv --metrics-json ${OUT}.metrics.json
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${run_rc}:\n${run_err}")
endif()
foreach(f ${files})
    if(NOT EXISTS ${f})
        message(FATAL_ERROR "${BIN} ${ARGS} wrote no ${f}")
    endif()
    file(SIZE ${f} size)
    if(size EQUAL 0)
        message(FATAL_ERROR "${BIN} ${ARGS} wrote an empty ${f}")
    endif()
endforeach()
file(READ ${OUT}.metrics.json metrics)
foreach(member "\"system_metrics\"" "\"telemetry\"" "\"obs.spans_recorded\""
        "\"obs.span_drops\"")
    string(FIND "${metrics}" "${member}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${OUT}.metrics.json has no ${member}")
    endif()
endforeach()
foreach(block ${blocks})
    string(FIND "${run_out}" "${block}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${BIN} ${ARGS} printed no \"${block}\" block")
    endif()
endforeach()
