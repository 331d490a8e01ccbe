/**
 * @file
 * Parallel, crash-isolated, resumable experiment engine: fans a matrix
 * of independent, deterministic (benchmark x machine-config) timed runs
 * out across a thread pool and returns the outcomes in submission
 * order.
 *
 * Determinism contract: every Machine is self-contained (its own stats,
 * memory, caches and decompressor state; the decoded text and trace it
 * reads are its benchmark's, shared and immutable), each run writes
 * only its own pre-allocated outcome slot, and the caller does all
 * printing after collection — so a table binary's stdout is
 * byte-identical at any CPS_THREADS value, including 1 (which runs
 * inline with no pool), with or without worker isolation, and whether
 * cells were executed or resumed from the artifact cache.
 *
 * Resilience layer (see cell_runner.hh):
 *   CPS_ISOLATE=1  runs each cell in a forked worker; a crash, hang or
 *                  garbled result becomes a structured CellStatus
 *                  instead of killing the whole table run
 *   CPS_RESUME=1   stores each successful cell's result envelope in
 *                  the artifact-cache directory under its cellKey
 *                  (fsynced); a rerun, of the same table or any other
 *                  sharing the cell, loads it and executes only the
 *                  cells it could not load
 * Cells that exhaust their retries surface as FAILED(reason)
 * placeholders in the table (Matrix::fmtNext) and one stderr line each
 * (Matrix::reportFailures) instead of aborting the binary; runPlan
 * turns them into cpstables' nonzero exit.
 */

#ifndef CPS_HARNESS_ENGINE_HH
#define CPS_HARNESS_ENGINE_HH

#include <functional>
#include <vector>

#include "cell_runner.hh"

namespace cps
{
namespace harness
{

/**
 * Runs every request under the process-wide resilience policy
 * (CellRunnerConfig::fromEnv + CPS_RESUME) and returns result + status
 * per cell, in submission order.
 * @param requests the matrix cells; each bench pointer must be valid
 * @param threads worker count; 0 means defaultThreadCount()
 */
std::vector<CellOutcome>
runMatrixCells(const std::vector<RunRequest> &requests,
               unsigned threads = 0);

/**
 * Formats a metric of one already-fetched cell, degrading to its
 * FAILED(reason) placeholder when the cell produced no result.
 */
inline std::string
fmtCell(const CellOutcome &c,
        const std::function<std::string(const RunOutcome &)> &fmt)
{
    return c.status.ok() ? fmt(c.outcome) : failLabel(c.status);
}

/**
 * Formats a metric derived from two cells (a speedup numerator and
 * denominator, say), degrading to the first failed cell's
 * FAILED(reason) placeholder when either produced no result.
 */
inline std::string
fmtCells(const CellOutcome &a, const CellOutcome &b,
         const std::function<std::string(const RunOutcome &,
                                         const RunOutcome &)> &fmt)
{
    if (!a.status.ok())
        return failLabel(a.status);
    if (!b.status.ok())
        return failLabel(b.status);
    return fmt(a.outcome, b.outcome);
}

/**
 * A request batch that keeps the submit-then-consume shape of the table
 * binaries readable: add() cells inside the same nested loops that will
 * later format the rows, run() once, then take() the outcomes in the
 * same order. fmtNext() renders a FAILED(reason) placeholder for cells
 * that exhausted their retries; reportFailures() names each of them on
 * stderr.
 */
class Matrix
{
  public:
    /** Queues one run; returns its slot index. */
    size_t
    add(const BenchProgram &bench, const MachineConfig &cfg, u64 max_insns)
    {
        requests_.push_back(RunRequest{&bench, cfg, max_insns});
        return requests_.size() - 1;
    }

    /** Queues one fully specified request; returns its slot index. */
    size_t
    add(const RunRequest &req)
    {
        requests_.push_back(req);
        return requests_.size() - 1;
    }

    /** Executes all queued runs (parallel; see runMatrixCells). */
    void
    run(unsigned threads = 0)
    {
        setCells(runMatrixCells(requests_, threads));
    }

    /** Takes one outcome per queued request, in submission order, in
     *  place of run() (a table plan runs several matrices as one). */
    void
    setCells(std::vector<CellOutcome> cells)
    {
        cells_ = std::move(cells);
        cursor_ = 0;
    }

    /** The queued requests, in submission order. */
    const std::vector<RunRequest> &requests() const { return requests_; }

    /** Number of queued requests. */
    size_t size() const { return requests_.size(); }

    /** The outcome of slot @p i (valid after run()). */
    const RunOutcome &outcome(size_t i) const
    {
        return cells_.at(i).outcome;
    }

    /** Result + status of slot @p i (valid after run()). */
    const CellOutcome &cell(size_t i) const { return cells_.at(i); }

    /** The next outcome in submission order (valid after run()). */
    const RunOutcome &
    next()
    {
        return cells_.at(cursor_++).outcome;
    }

    /** The next result + status in submission order. */
    const CellOutcome &
    nextCell()
    {
        return cells_.at(cursor_++);
    }

    /**
     * Formats the next cell for a table: @p fmt on a successful
     * outcome, the FAILED(reason) placeholder otherwise.
     */
    std::string
    fmtNext(const std::function<std::string(const RunOutcome &)> &fmt)
    {
        return fmtCell(nextCell(), fmt);
    }

    /** Cells whose final attempt failed (valid after run()). */
    unsigned
    failedCount() const
    {
        unsigned n = 0;
        for (const CellOutcome &c : cells_)
            if (!c.status.ok())
                ++n;
        return n;
    }

    /**
     * Prints one stderr line per failed cell and then their count;
     * prints nothing when every cell succeeded (valid after run()).
     */
    void reportFailures() const;

  private:
    std::vector<RunRequest> requests_;
    std::vector<CellOutcome> cells_;
    size_t cursor_ = 0;
};

} // namespace harness
} // namespace cps

#endif // CPS_HARNESS_ENGINE_HH
