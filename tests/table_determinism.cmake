# Runs a table binary seven ways — engine serial (CPS_THREADS=1), on 8
# workers, on 8 workers with trace replay disabled (CPS_REPLAY=0), on 8
# workers against a cold then warm artifact cache, on 8 forked workers
# (CPS_ISOLATE=1), and killed mid-matrix then resumed (CPS_RESUME=1) —
# and fails unless all seven stdouts are byte-identical and the serial
# one equals the checked-in golden. The legs are the user-visible face
# of four contracts: matrix determinism at any worker count,
# trace-replay equivalence with live execution, artifact-cache
# transparency, and resilience transparency (worker isolation and
# resumed cells change how cells execute, never what the table
# prints). The golden pins the numbers themselves, so a change that
# shifts every leg alike still fails.
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
set(parallel_out "${WORK_DIR}/table_det_parallel.txt")
set(live_out "${WORK_DIR}/table_det_live.txt")
set(cache_cold_out "${WORK_DIR}/table_det_cache_cold.txt")
set(cache_warm_out "${WORK_DIR}/table_det_cache_warm.txt")
set(cache_dir "${WORK_DIR}/table_det_cache")

set(ENV{CPS_INSNS} "20000")

# The three baseline runs pregenerate from scratch every time (cache
# disabled), as the suite did before the artifact cache existed.
set(ENV{CPS_ARTIFACT_CACHE} "0")

set(ENV{CPS_THREADS} "1")
execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${serial_out}
    RESULT_VARIABLE serial_rc)
if (NOT serial_rc EQUAL 0)
    message(FATAL_ERROR "serial run failed (rc=${serial_rc})")
endif()

set(ENV{CPS_THREADS} "8")
execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${parallel_out}
    RESULT_VARIABLE parallel_rc)
if (NOT parallel_rc EQUAL 0)
    message(FATAL_ERROR "parallel run failed (rc=${parallel_rc})")
endif()

set(ENV{CPS_REPLAY} "0")
execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${live_out}
    RESULT_VARIABLE live_rc)
if (NOT live_rc EQUAL 0)
    message(FATAL_ERROR "live (CPS_REPLAY=0) run failed (rc=${live_rc})")
endif()
unset(ENV{CPS_REPLAY})

# Cache runs: cold (fresh directory, computes and stores) then warm
# (loads everything back). Both must reproduce the baseline bytes.
set(ENV{CPS_ARTIFACT_CACHE} "1")
set(ENV{CPS_CACHE_DIR} "${cache_dir}")
file(REMOVE_RECURSE ${cache_dir})

execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${cache_cold_out}
    RESULT_VARIABLE cache_cold_rc)
if (NOT cache_cold_rc EQUAL 0)
    message(FATAL_ERROR "cache-cold run failed (rc=${cache_cold_rc})")
endif()

execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${cache_warm_out}
    RESULT_VARIABLE cache_warm_rc)
if (NOT cache_warm_rc EQUAL 0)
    message(FATAL_ERROR "cache-warm run failed (rc=${cache_warm_rc})")
endif()

# Isolated leg: every cell in a forked worker. The resilience layer
# must be invisible in the output — same bytes, pure overhead.
set(isolated_out "${WORK_DIR}/table_det_isolated.txt")
set(ENV{CPS_ISOLATE} "1")
execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${isolated_out}
    RESULT_VARIABLE isolated_rc)
if (NOT isolated_rc EQUAL 0)
    message(FATAL_ERROR "isolated (CPS_ISOLATE=1) run failed "
        "(rc=${isolated_rc})")
endif()
unset(ENV{CPS_ISOLATE})

# Interrupted/resumed leg: the first run stores each completed cell in
# the cache directory (CPS_RESUME=1) and the engine's test hook kills
# the process from inside runMatrixCells after 5 newly executed cells
# (exit 42, no cleanup — exactly what an external SIGKILL leaves
# behind). The rerun must load the stored cells, execute only the
# rest, and print the same bytes an uninterrupted run prints.
set(interrupted_out "${WORK_DIR}/table_det_interrupted.txt")
set(resumed_out "${WORK_DIR}/table_det_resumed.txt")
set(rerun_out "${WORK_DIR}/table_det_rerun.txt")
set(ENV{CPS_RESUME} "1")
set(ENV{CPS_TEST_EXIT_AFTER_CELLS} "5")
execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${interrupted_out}
    RESULT_VARIABLE interrupted_rc)
if (NOT interrupted_rc EQUAL 42)
    message(FATAL_ERROR "interrupted run was expected to die mid-matrix "
        "with exit 42, got rc=${interrupted_rc}")
endif()
unset(ENV{CPS_TEST_EXIT_AFTER_CELLS})

execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${resumed_out}
    RESULT_VARIABLE resumed_rc)
if (NOT resumed_rc EQUAL 0)
    message(FATAL_ERROR "resumed (CPS_RESUME=1) run failed "
        "(rc=${resumed_rc})")
endif()

# A completed matrix executes no cell: rerun with the kill hook armed
# for the first executed cell, which must never fire.
set(ENV{CPS_TEST_EXIT_AFTER_CELLS} "1")
execute_process(COMMAND ${TABLE_CMD}
    OUTPUT_FILE ${rerun_out}
    RESULT_VARIABLE rerun_rc)
if (NOT rerun_rc EQUAL 0)
    message(FATAL_ERROR "rerun of a completed matrix executed a cell "
        "or failed (rc=${rerun_rc})")
endif()
unset(ENV{CPS_TEST_EXIT_AFTER_CELLS})
unset(ENV{CPS_RESUME})

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${serial_out} ${parallel_out}
    RESULT_VARIABLE diff_rc)
if (NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "table output differs between CPS_THREADS=1 and CPS_THREADS=8")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${parallel_out} ${live_out}
    RESULT_VARIABLE replay_diff_rc)
if (NOT replay_diff_rc EQUAL 0)
    message(FATAL_ERROR
        "table output differs between trace replay and CPS_REPLAY=0")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${serial_out} ${cache_cold_out}
    RESULT_VARIABLE cold_diff_rc)
if (NOT cold_diff_rc EQUAL 0)
    message(FATAL_ERROR
        "table output differs between disabled and cold artifact cache")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${serial_out} ${cache_warm_out}
    RESULT_VARIABLE warm_diff_rc)
if (NOT warm_diff_rc EQUAL 0)
    message(FATAL_ERROR
        "table output differs between disabled and warm artifact cache")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${serial_out} ${isolated_out}
    RESULT_VARIABLE iso_diff_rc)
if (NOT iso_diff_rc EQUAL 0)
    message(FATAL_ERROR
        "table output differs between inline and CPS_ISOLATE=1 workers")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${serial_out} ${resumed_out}
    RESULT_VARIABLE resume_diff_rc)
if (NOT resume_diff_rc EQUAL 0)
    message(FATAL_ERROR "table output differs between an uninterrupted "
        "run and a killed-then-resumed (CPS_RESUME=1) run")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${serial_out} ${rerun_out}
    RESULT_VARIABLE rerun_diff_rc)
if (NOT rerun_diff_rc EQUAL 0)
    message(FATAL_ERROR "table output differs between an uninterrupted "
        "run and a rerun of a completed matrix (CPS_RESUME=1)")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${serial_out}
    RESULT_VARIABLE golden_diff_rc)
if (NOT golden_diff_rc EQUAL 0)
    message(FATAL_ERROR "table output differs from the golden ${GOLDEN} "
        "(this run's output: ${serial_out})")
endif()
