#include "engine.hh"

#include <atomic>
#include <cstdio>
#include <memory>
#include <unistd.h>

#include "common/logging.hh"
#include "common/threadpool.hh"
#include "journal.hh"

namespace cps
{
namespace harness
{

namespace
{

/**
 * Test hook simulating a mid-matrix kill: after this many newly
 * executed (non-journaled) cells complete, the process exits with code
 * 42 — from inside the engine, exactly where a real SIGKILL would cut
 * a campaign short. Used by the interrupted/resumed determinism test;
 * unset (the default) in real runs.
 */
u64
testExitAfterCells()
{
    static const u64 cached =
        envUnsigned("CPS_TEST_EXIT_AFTER_CELLS", 0, 1, u64{1} << 40);
    return cached;
}

constexpr int kTestExitCode = 42;

} // namespace

std::vector<CellOutcome>
runMatrixCells(const std::vector<RunRequest> &requests, unsigned threads)
{
    for (const RunRequest &r : requests)
        cps_assert(r.bench != nullptr, "matrix request without bench");

    std::vector<CellOutcome> cells(requests.size());
    if (requests.empty())
        return cells;
    if (threads == 0)
        threads = defaultThreadCount();

    const CellRunner runner(CellRunnerConfig::fromEnv());

    // Resume journal: replay completed cells, execute the rest, and
    // record each newly completed cell as soon as it finishes.
    std::unique_ptr<MatrixJournal> journal;
    if (resumeEnabled()) {
        journal = std::make_unique<MatrixJournal>(
            journalDir(), matrixKey(requests), requests.size());
        std::vector<std::optional<RunOutcome>> replayed =
            journal->load(requests);
        for (size_t i = 0; i < requests.size(); ++i) {
            if (!replayed[i])
                continue;
            cells[i].outcome = std::move(*replayed[i]);
            cells[i].status.fromJournal = true;
        }
    }

    std::atomic<u64> completed{0};
    const u64 exit_after = testExitAfterCells();

    auto runCell = [&](size_t i) {
        if (cells[i].status.fromJournal)
            return;
        cells[i] = runner.run(requests[i]);
        if (journal && cells[i].status.ok())
            journal->append(i, cellKey(requests[i]), cells[i].outcome);
        if (exit_after > 0 &&
            completed.fetch_add(1, std::memory_order_relaxed) + 1 >=
                exit_after) {
            // Simulated kill: no flushing, no destructors — the journal
            // records already on disk are all a rerun gets.
            ::_exit(kTestExitCode);
        }
    };

    if (threads <= 1 || requests.size() <= 1) {
        for (size_t i = 0; i < requests.size(); ++i)
            runCell(i);
    } else {
        ThreadPool pool(threads);
        pool.parallelFor(requests.size(), runCell);
    }

    // A fully successful matrix closes its journal: reruns replay from
    // the compact form and repeat campaigns stop growing the file.
    if (journal) {
        bool all_ok = true;
        for (const CellOutcome &c : cells)
            all_ok = all_ok && c.status.ok();
        if (all_ok)
            journal->compact(requests);
    }
    return cells;
}

int
Matrix::exitSummary() const
{
    unsigned failed = 0;
    for (size_t i = 0; i < cells_.size(); ++i) {
        const CellStatus &st = cells_[i].status;
        if (st.ok())
            continue;
        ++failed;
        std::fprintf(stderr, "cell %zu/%zu %s: %s\n", i, cells_.size(),
                     requests_[i].bench->profile
                         ? requests_[i].bench->profile->name.c_str()
                         : "?",
                     st.describe().c_str());
    }
    if (failed == 0)
        return 0;
    std::fprintf(stderr, "%u of %zu matrix cells FAILED\n", failed,
                 cells_.size());
    return 1;
}

} // namespace harness
} // namespace cps
