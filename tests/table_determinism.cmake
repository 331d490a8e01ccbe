# Runs a table binary six times, one leg per contract, and fails unless
# every leg prints the serial leg's bytes and those equal the checked-in
# golden:
#
#   serial       engine serial (CPS_THREADS=1), artifact cache off: the
#                reference, compared with the golden;
#   cache_cold   8 workers into an empty artifact cache: matrix
#                determinism at any worker count, and a cold cache
#                (compute and store) changes nothing;
#   isolated     8 forked workers (CPS_ISOLATE=1) on the now-warm cache:
#                loaded artifacts and worker isolation change nothing;
#   interrupted, resumed, rerun
#                killed mid-matrix, then resumed (CPS_RESUME=1), then
#                rerun once complete: resumed cells change nothing.
#
# Replayed and live instruction streams are pinned per cell by
# TraceReplay.EveryProfileEveryPipelineMatchesLiveExactly, so no leg
# here switches replay off. The golden pins the numbers themselves, so
# a change that shifts every leg alike still fails.
#
# A golden is regenerated by copying the table_det_serial.txt this
# script writes into WORK_DIR over the golden file, after reviewing the
# diff.
#
# Expects: TABLE_BIN (the binary), WORK_DIR (scratch directory), GOLDEN
# (the expected stdout at CPS_INSNS=20000).
# Optional: TABLE_ARGS (the binary's arguments, a list).

if (NOT TABLE_BIN OR NOT WORK_DIR OR NOT GOLDEN)
    message(FATAL_ERROR "TABLE_BIN, WORK_DIR and GOLDEN are required")
endif()
set(TABLE_CMD ${TABLE_BIN} ${TABLE_ARGS})
set(serial_out "${WORK_DIR}/table_det_serial.txt")
set(cache_dir "${WORK_DIR}/table_det_cache")

# Runs the table once under the current environment, writing its stdout
# to WORK_DIR/table_det_<leg>.txt, and fails unless it exits with rc.
function(run_leg leg rc)
    execute_process(COMMAND ${TABLE_CMD}
        OUTPUT_FILE "${WORK_DIR}/table_det_${leg}.txt"
        RESULT_VARIABLE leg_rc)
    if (NOT leg_rc EQUAL rc)
        message(FATAL_ERROR "${leg} run exited with rc=${leg_rc}, "
            "expected ${rc}")
    endif()
endfunction()

# Fails, naming the leg, unless its stdout equals the serial leg's.
function(expect_serial_bytes leg)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        ${serial_out} "${WORK_DIR}/table_det_${leg}.txt"
        RESULT_VARIABLE diff_rc)
    if (NOT diff_rc EQUAL 0)
        message(FATAL_ERROR "table output of the ${leg} leg differs "
            "from the serial leg's")
    endif()
endfunction()

set(ENV{CPS_INSNS} "20000")

# The reference: one worker, every artifact built from scratch.
set(ENV{CPS_THREADS} "1")
set(ENV{CPS_ARTIFACT_CACHE} "0")
run_leg(serial 0)

set(ENV{CPS_THREADS} "8")
set(ENV{CPS_ARTIFACT_CACHE} "1")
set(ENV{CPS_CACHE_DIR} "${cache_dir}")
file(REMOVE_RECURSE ${cache_dir})
run_leg(cache_cold 0)
expect_serial_bytes(cache_cold)

# Every cell in a forked worker: the resilience layer must be invisible
# in the output — same bytes, pure overhead.
set(ENV{CPS_ISOLATE} "1")
run_leg(isolated 0)
unset(ENV{CPS_ISOLATE})
expect_serial_bytes(isolated)

# The first run stores each completed cell in the cache directory
# (CPS_RESUME=1) and the engine's test hook kills the process from
# inside runMatrixCells after 5 newly executed cells (exit 42, no
# cleanup — exactly what an external SIGKILL leaves behind). The rerun
# must load the stored cells, execute only the rest, and print the
# same bytes an uninterrupted run prints. A completed matrix then
# executes no cell: a third run arms the kill hook for the first
# executed cell, which must never fire.
set(ENV{CPS_RESUME} "1")
set(ENV{CPS_TEST_EXIT_AFTER_CELLS} "5")
run_leg(interrupted 42)
unset(ENV{CPS_TEST_EXIT_AFTER_CELLS})
run_leg(resumed 0)
expect_serial_bytes(resumed)
set(ENV{CPS_TEST_EXIT_AFTER_CELLS} "1")
run_leg(rerun 0)
expect_serial_bytes(rerun)

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${serial_out}
    RESULT_VARIABLE golden_diff_rc)
if (NOT golden_diff_rc EQUAL 0)
    message(FATAL_ERROR "table output differs from the golden ${GOLDEN} "
        "(this run's output: ${serial_out})")
endif()
