/**
 * @file
 * The paper's tables as specs, and the plan that runs a list of them
 * as one matrix. Most tables sweep one parameter of Table 2's 4-issue
 * machine, so they share cells: all twelve ask for 508, of which 279
 * are distinct, and a plan simulates each distinct cell once.
 */

#ifndef CPS_HARNESS_TABLES_HH
#define CPS_HARNESS_TABLES_HH

#include <functional>
#include <string>
#include <vector>

#include "engine.hh"

namespace cps
{
namespace harness
{

/** Prints one table to stdout from the outcomes of the cells its spec
 *  declared on @p m, taken in declaration order (Matrix::nextCell). */
using TablePrinter = std::function<void(Matrix &m)>;

/** Declares one table's cells on @p m and returns its printer. */
using TableSpec = std::function<TablePrinter(Matrix &m)>;

/** What one plan ran, as its stderr line reports it. */
struct PlanCounts
{
    size_t tables = 0;
    size_t requested = 0; ///< cells the specs declared
    size_t unique = 0;    ///< cells left after merging by cellKey
    size_t executed = 0;  ///< unique cells simulated by this process
    size_t resumed = 0;   ///< unique cells loaded from the resume store
    size_t failed = 0;    ///< unique cells whose final attempt failed
};

/**
 * Pregenerates the suite, merges the requests of all @p specs by
 * cellKey (never one with an injected fault or a live soft-error
 * domain, which the key cannot tell apart), runs the distinct cells as
 * one matrix, and prints the tables in order, one blank line apart,
 * each from its own outcomes. Then reports each failed distinct cell
 * once and writes one stderr line of counts.
 * @param threads worker count; 0 means defaultThreadCount()
 */
PlanCounts runPlan(const std::vector<TableSpec> &specs,
                   unsigned threads = 0);

/**
 * Runs the named paper tables (table1, table3 ... table12 and fig2;
 * Table 2 prints with table5), or all of them in that order for
 * "--all", as one plan.
 * @return 0; 1 when a cell failed; 2, after one stderr line listing
 *         the names, for an unknown name or none
 */
int runTables(const std::vector<std::string> &args);

} // namespace harness
} // namespace cps

#endif // CPS_HARNESS_TABLES_HH
