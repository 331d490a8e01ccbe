#include "engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fcntl.h>
#include <unistd.h>

#include "common/artifact_cache.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"

namespace cps
{
namespace harness
{

namespace
{

/**
 * Test hook simulating a mid-matrix kill: after this many newly
 * executed (not resumed) cells complete, the process exits with code
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

/**
 * The resume store: the artifact cache's directory, opened once and
 * enabled by CPS_RESUME=1 alone, so resume works with
 * CPS_ARTIFACT_CACHE=0 too.
 */
const ArtifactCache &
resumeStore()
{
    static const ArtifactCache store(ArtifactCache::instance().dir(),
                                     envFlag("CPS_RESUME", false));
    return store;
}

/**
 * Flushes a published entry to stable storage: a checkpoint that only
 * reached the page cache is lost to the very host crash it exists to
 * survive. Best-effort; a lost entry costs a re-run, never a wrong
 * table.
 */
void
syncEntry(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

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

    // Each distinct benchmark's text is decoded before any cell runs
    // or forks: every cell then reads the one shared text, no forked
    // child can inherit a once-flag mid-build, and isolated children
    // share the parent's pages.
    std::vector<const BenchProgram *> benches;
    for (const RunRequest &r : requests)
        if (std::find(benches.begin(), benches.end(), r.bench) ==
            benches.end())
            benches.push_back(r.bench);
    auto buildText = [&](size_t i) { benches[i]->text(); };

    const CellRunner runner(CellRunnerConfig::fromEnv());
    const ArtifactCache &store = resumeStore();

    std::atomic<u64> completed{0};
    const u64 exit_after = testExitAfterCells();

    // Resume: a cell that an earlier CPS_RESUME=1 run finished, in any
    // table, loads from the store under its cellKey; the rest execute,
    // and each success is stored as soon as it finishes.
    auto runCell = [&](size_t i) {
        std::string key;
        if (store.enabled()) {
            key = cellKey(requests[i]);
            if (std::optional<std::vector<u8>> env = store.load(key)) {
                Result<RunOutcome> out = decodeRunOutcomeChecked(*env);
                if (out) {
                    cells[i].outcome = std::move(*out);
                    cells[i].status.resumed = true;
                    return;
                }
            }
        }
        cells[i] = runner.run(requests[i]);
        if (store.enabled() && cells[i].status.ok() &&
            store.store(key, encodeRunOutcome(cells[i].outcome)))
            syncEntry(store.entryPath(key));
        if (exit_after > 0 &&
            completed.fetch_add(1, std::memory_order_relaxed) + 1 >=
                exit_after) {
            // Simulated kill: no flushing, no destructors — the cells
            // already stored are all a rerun gets.
            ::_exit(kTestExitCode);
        }
    };

    if (threads <= 1 || requests.size() <= 1) {
        for (size_t i = 0; i < benches.size(); ++i)
            buildText(i);
        for (size_t i = 0; i < requests.size(); ++i)
            runCell(i);
    } else {
        ThreadPool pool(threads);
        // parallelFor returns once every text is built.
        pool.parallelFor(benches.size(), buildText);
        pool.parallelFor(requests.size(), runCell);
    }
    return cells;
}

void
Matrix::reportFailures() const
{
    for (size_t i = 0; i < cells_.size(); ++i) {
        const CellStatus &st = cells_[i].status;
        if (!st.ok())
            std::fprintf(stderr, "cell %zu/%zu %s: %s\n", i, cells_.size(),
                         requests_[i].bench->profile->name.c_str(),
                         st.describe().c_str());
    }
    if (const unsigned failed = failedCount())
        std::fprintf(stderr, "%u of %zu matrix cells FAILED\n", failed,
                     cells_.size());
}

} // namespace harness
} // namespace cps
