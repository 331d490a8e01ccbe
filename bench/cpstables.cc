/**
 * @file
 * `cpstables <name>...|--all`: prints the named paper tables, or all
 * twelve, run as one matrix (see harness/tables.hh).
 */

#include "harness/tables.hh"

int
main(int argc, char **argv)
{
    return cps::harness::runTables({argv + 1, argv + argc});
}
