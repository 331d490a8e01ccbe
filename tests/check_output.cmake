# Runs one binary and checks what it printed. Fails if the binary's
# exit code is not RC (0 unless given), if its stdout differs from
# GOLDEN (when given), if its stderr followed by its stdout does not
# match the regex EXPECT (when given), or, when CACHE_ENTRIES is given,
# if the binary, run into an emptied $ENV{CPS_CACHE_DIR}, leaves a
# different number of artifact-cache entries there. The binary inherits
# the test's environment (set it with the ENVIRONMENT test property).
#
# A golden is regenerated by copying the OUT file this script writes
# over the golden file, after reviewing the diff.
#
# Expects: BIN (the binary), OUT (the file that receives its stdout).
# Optional: ARGS (the binary's arguments, a list), RC (the expected exit
# code), GOLDEN (the expected stdout), EXPECT (a regex), CACHE_ENTRIES
# (a count).

if (NOT BIN OR NOT OUT)
    message(FATAL_ERROR "BIN and OUT are required")
endif()
if (NOT RC)
    set(RC 0)
endif()

if (DEFINED CACHE_ENTRIES)
    if (NOT DEFINED ENV{CPS_CACHE_DIR})
        message(FATAL_ERROR "CACHE_ENTRIES needs CPS_CACHE_DIR set")
    endif()
    file(REMOVE_RECURSE $ENV{CPS_CACHE_DIR})
endif()

execute_process(COMMAND ${BIN} ${ARGS}
    OUTPUT_FILE ${OUT}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if (NOT rc EQUAL RC)
    message(FATAL_ERROR "${BIN} exited with rc=${rc}, not ${RC}:\n${err}")
endif()

if (GOLDEN)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
        RESULT_VARIABLE diff_rc)
    if (NOT diff_rc EQUAL 0)
        message(FATAL_ERROR "output differs from the golden ${GOLDEN} "
            "(this run's output: ${OUT})")
    endif()
endif()

if (EXPECT)
    file(READ ${OUT} out)
    if (NOT "${err}${out}" MATCHES "${EXPECT}")
        message(FATAL_ERROR "output does not match '${EXPECT}':\n"
            "${err}${out}")
    endif()
endif()

if (DEFINED CACHE_ENTRIES)
    file(GLOB entries "$ENV{CPS_CACHE_DIR}/*.art")
    list(LENGTH entries n)
    if (NOT n EQUAL CACHE_ENTRIES)
        message(FATAL_ERROR "${BIN} left ${n} cache entries in "
            "$ENV{CPS_CACHE_DIR}, not ${CACHE_ENTRIES}")
    endif()
endif()
