/**
 * @file
 * `cpstables table5`, under the name perfbench builds against the
 * harness library alone to cross-check its Table 5.
 */

#include "harness/tables.hh"

int main() { return cps::harness::runTables({"table5"}); }
