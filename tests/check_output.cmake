# Runs one binary and checks what it printed. Fails if the binary's
# exit code is not RC (0 unless given), if its stdout differs from
# GOLDEN (when given), or if its stderr followed by its stdout does not
# match the regex EXPECT (when given). The binary inherits the test's
# environment (set it with the ENVIRONMENT test property).
#
# A golden is regenerated by copying the OUT file this script writes
# over the golden file, after reviewing the diff.
#
# Expects: BIN (the binary), OUT (the file that receives its stdout).
# Optional: ARGS (the binary's arguments, a list), RC (the expected exit
# code), GOLDEN (the expected stdout), EXPECT (a regex).

if (NOT BIN OR NOT OUT)
    message(FATAL_ERROR "BIN and OUT are required")
endif()
if (NOT RC)
    set(RC 0)
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
