# Fails unless README's knob table lists exactly the CPS_* environment
# knobs the code reads. A knob is a CPS_* string literal passed to
# envUnsigned, envFlag or getenv in src/, bench/ or examples/; a table
# row is a README line that starts with "| `CPS_...` |". The failure
# names every knob on one side only.
#
# Expects: SOURCE_DIR (the repository root).

if (NOT SOURCE_DIR)
    message(FATAL_ERROR "SOURCE_DIR is required")
endif()

file(GLOB_RECURSE sources
    "${SOURCE_DIR}/src/*.cc" "${SOURCE_DIR}/src/*.hh"
    "${SOURCE_DIR}/bench/*.cc" "${SOURCE_DIR}/bench/*.hh"
    "${SOURCE_DIR}/examples/*.cpp")
set(read_knobs "")
foreach(src IN LISTS sources)
    file(READ ${src} text)
    # The literal may sit on the line after the call's parenthesis.
    string(REGEX MATCHALL
        "(envUnsigned|envFlag|getenv)\\([ \t\r\n]*\"CPS_[A-Z0-9_]+\""
        calls "${text}")
    foreach(call IN LISTS calls)
        string(REGEX REPLACE ".*\"(CPS_[A-Z0-9_]+)\"" "\\1" knob "${call}")
        list(APPEND read_knobs ${knob})
    endforeach()
endforeach()
list(REMOVE_DUPLICATES read_knobs)
list(SORT read_knobs)

file(STRINGS "${SOURCE_DIR}/README.md" rows REGEX "^\\| `CPS_[A-Z0-9_]+` \\|")
set(table_knobs "")
foreach(row IN LISTS rows)
    string(REGEX REPLACE "^\\| `(CPS_[A-Z0-9_]+)` \\|.*" "\\1" knob "${row}")
    list(APPEND table_knobs ${knob})
endforeach()
list(SORT table_knobs)

set(undocumented ${read_knobs})
set(unread ${table_knobs})
if (table_knobs)
    list(REMOVE_ITEM undocumented ${table_knobs})
endif()
if (read_knobs)
    list(REMOVE_ITEM unread ${read_knobs})
endif()
if (undocumented OR unread)
    message(FATAL_ERROR "README's knob table and the code disagree: "
        "read but not in the table: [${undocumented}]; "
        "in the table but never read: [${unread}]")
endif()
list(LENGTH read_knobs count)
message(STATUS "${count} CPS_* knobs, each read in code and in README's "
    "table: ${read_knobs}")
