/**
 * @file
 * Parallel experiment engine tests: runMatrixCells must return outcomes in
 * submission order and bit-identically to the serial path no matter how
 * many workers execute the runs — that is the contract that lets every
 * table binary fan out across cores and still print byte-identical
 * output. Also covers the Matrix cursor helper, the table plan that
 * runs several tables' cells as one deduplicated matrix, and the
 * thread-safe Suite accessors the engine leans on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hh"
#include "common/threadpool.hh"
#include "harness/engine.hh"
#include "harness/tables.hh"

namespace cps
{
namespace
{

constexpr u64 kInsns = 20000;

std::vector<harness::RunRequest>
smallMatrix()
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    std::vector<harness::RunRequest> reqs;
    for (const char *name : {"pegwit", "go"}) {
        const BenchProgram &bench = suite.get(name);
        for (CodeModel model : {CodeModel::Native, CodeModel::CodePack,
                                CodeModel::CodePackOptimized}) {
            reqs.push_back(
                {&bench, baseline4Issue().withCodeModel(model), kInsns});
        }
    }
    return reqs;
}

/** The outcomes of runMatrixCells, with every cell required to succeed. */
std::vector<RunOutcome>
runOutcomes(const std::vector<harness::RunRequest> &reqs, unsigned threads)
{
    std::vector<RunOutcome> out;
    for (const harness::CellOutcome &c :
         harness::runMatrixCells(reqs, threads)) {
        EXPECT_TRUE(c.status.ok()) << c.status.describe();
        out.push_back(c.outcome);
    }
    return out;
}

void
expectSameOutcomes(const std::vector<RunOutcome> &a,
                   const std::vector<RunOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].result.cycles, b[i].result.cycles) << "slot " << i;
        EXPECT_EQ(a[i].result.instructions, b[i].result.instructions);
        EXPECT_EQ(a[i].result.programExited, b[i].result.programExited);
        EXPECT_EQ(a[i].icacheMisses, b[i].icacheMisses) << "slot " << i;
        EXPECT_EQ(a[i].bufferHits, b[i].bufferHits) << "slot " << i;
        EXPECT_EQ(a[i].missLatencyTotal, b[i].missLatencyTotal);
        EXPECT_DOUBLE_EQ(a[i].icacheMissRate, b[i].icacheMissRate);
        EXPECT_DOUBLE_EQ(a[i].indexCacheMissRate, b[i].indexCacheMissRate);
    }
}

TEST(RunMatrix, ParallelOutcomesMatchSerialExactly)
{
    std::vector<harness::RunRequest> reqs = smallMatrix();
    std::vector<RunOutcome> serial = runOutcomes(reqs, 1);
    std::vector<RunOutcome> parallel = runOutcomes(reqs, 8);
    expectSameOutcomes(serial, parallel);
}

TEST(RunMatrix, RepeatedParallelRunsAreDeterministic)
{
    std::vector<harness::RunRequest> reqs = smallMatrix();
    std::vector<RunOutcome> first = runOutcomes(reqs, 8);
    std::vector<RunOutcome> second = runOutcomes(reqs, 8);
    expectSameOutcomes(first, second);
}

TEST(RunMatrix, RendersByteIdenticalTables)
{
    std::vector<harness::RunRequest> reqs = smallMatrix();
    auto render = [&](unsigned threads) {
        std::vector<RunOutcome> out = runOutcomes(reqs, threads);
        TextTable t;
        t.addHeader({"Slot", "Cycles", "IPC", "Miss rate"});
        for (size_t i = 0; i < out.size(); ++i)
            t.addRow({std::to_string(i),
                      std::to_string(out[i].result.cycles),
                      TextTable::fmt(out[i].result.ipc(), 3),
                      TextTable::pct(out[i].icacheMissRate)});
        return t.render();
    };
    EXPECT_EQ(render(1), render(8));
}

TEST(RunMatrix, EmptyMatrixIsFine)
{
    std::vector<harness::RunRequest> reqs;
    EXPECT_TRUE(runOutcomes(reqs, 4).empty());
}

TEST(MatrixHelper, CursorHandsBackSubmissionOrder)
{
    Suite &suite = Suite::instance();
    const BenchProgram &bench = suite.get("pegwit");
    harness::Matrix m;
    size_t s0 = m.add(bench, baseline4Issue(), kInsns);
    size_t s1 = m.add(
        bench, baseline4Issue().withCodeModel(CodeModel::CodePack), kInsns);
    EXPECT_EQ(s0, 0u);
    EXPECT_EQ(s1, 1u);
    EXPECT_EQ(m.size(), 2u);
    m.run(4);

    const RunOutcome &native = m.next();
    const RunOutcome &cp = m.next();
    EXPECT_EQ(native.result.cycles, m.outcome(0).result.cycles);
    EXPECT_EQ(cp.result.cycles, m.outcome(1).result.cycles);
    // CodePack never beats native on the same machine (paper Table 5).
    EXPECT_GE(cp.result.cycles, native.result.cycles);
}

/** A table spec over @p reqs whose printer hands back every cell it
 *  takes, rendered as a table would render its IPC. */
harness::TableSpec
recordingSpec(std::vector<harness::RunRequest> reqs,
              std::vector<harness::CellOutcome> &cells,
              std::vector<std::string> &rendered)
{
    return [reqs, &cells, &rendered](harness::Matrix &m) {
        for (const harness::RunRequest &r : reqs)
            m.add(r);
        return [&cells, &rendered](harness::Matrix &m) {
            for (size_t i = 0; i < m.size(); ++i) {
                cells.push_back(m.nextCell());
                rendered.push_back(harness::fmtCell(
                    cells.back(), [](const RunOutcome &o) {
                        return TextTable::fmt(o.result.ipc(), 3);
                    }));
            }
        };
    };
}

std::vector<RunOutcome>
outcomesOf(const std::vector<harness::CellOutcome> &cells)
{
    std::vector<RunOutcome> out;
    for (const harness::CellOutcome &c : cells)
        out.push_back(c.outcome);
    return out;
}

/** Table @p reqs alone, as one Matrix::run. */
std::vector<RunOutcome>
standalone(const std::vector<harness::RunRequest> &reqs)
{
    harness::Matrix m;
    for (const harness::RunRequest &r : reqs)
        m.add(r);
    m.run(4);
    std::vector<RunOutcome> out;
    for (size_t i = 0; i < reqs.size(); ++i)
        out.push_back(m.outcome(i));
    return out;
}

TEST(TablePlan, RunsSharedCellsOnceAndHandsEachTableItsOwnOutcomes)
{
    // Six cells; tables a and b share pegwit-optimized and go-native.
    // Table c asks for a's first cell with an injected fault, which
    // cellKey does not name, so that request must run on its own.
    std::vector<harness::RunRequest> all = smallMatrix();
    std::vector<harness::RunRequest> a(all.begin(), all.begin() + 4);
    std::vector<harness::RunRequest> b(all.begin() + 2, all.end());
    std::reverse(b.begin(), b.end());
    harness::RunRequest slow = a[0];
    slow.injectFault = harness::CellFault::SlowResult;
    slow.faultDelayMs = 1;

    std::vector<harness::CellOutcome> cells_a, cells_b, cells_c;
    std::vector<std::string> text_a, text_b, text_c;
    harness::PlanCounts c =
        harness::runPlan({recordingSpec(a, cells_a, text_a),
                          recordingSpec(b, cells_b, text_b),
                          recordingSpec({slow}, cells_c, text_c)},
                         4);
    EXPECT_EQ(c.tables, 3u);
    EXPECT_EQ(c.requested, 9u);
    EXPECT_EQ(c.unique, 7u);
    EXPECT_EQ(c.executed, 7u);
    EXPECT_EQ(c.resumed, 0u);
    EXPECT_EQ(c.failed, 0u);
    expectSameOutcomes(outcomesOf(cells_a), standalone(a));
    expectSameOutcomes(outcomesOf(cells_b), standalone(b));
}

TEST(TablePlan, AFailedSharedCellFailsInEveryTableAndIsReportedOnce)
{
    // A watchdog that checks every loop iteration and trips on the
    // first check without a retirement stalls the cell: a failure
    // cellKey names, so both tables share it.
    const BenchProgram &bench = Suite::instance().get("pegwit");
    MachineConfig stalling = baseline4Issue();
    stalling.pipeline.watchdogInterval = 1;
    stalling.pipeline.watchdogStallLimit = 1;
    const harness::RunRequest bad{&bench, stalling, kInsns};
    const harness::RunRequest good{&bench, baseline4Issue(), kInsns};

    std::vector<harness::CellOutcome> cells_a, cells_b;
    std::vector<std::string> text_a, text_b;
    testing::internal::CaptureStderr();
    harness::PlanCounts c =
        harness::runPlan({recordingSpec({bad, good}, cells_a, text_a),
                          recordingSpec({good, bad}, cells_b, text_b)},
                         2);
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(c.unique, 2u);
    EXPECT_EQ(c.failed, 1u);
    ASSERT_EQ(text_a.size(), 2u);
    ASSERT_EQ(text_b.size(), 2u);
    EXPECT_EQ(text_a[0], "FAILED(stall)");
    EXPECT_EQ(text_b[1], "FAILED(stall)");
    EXPECT_EQ(text_a[1], text_b[0]);
    EXPECT_EQ(text_a[1].find("FAILED"), std::string::npos);

    // One simulation (the machine's own stall warning) and one report.
    size_t simulated = 0, reported = 0;
    std::istringstream lines(err);
    for (std::string line; std::getline(lines, line);) {
        simulated += line.rfind("warn: machine", 0) == 0;
        reported += line.rfind("cell ", 0) == 0;
    }
    EXPECT_EQ(simulated, 1u) << err;
    EXPECT_EQ(reported, 1u) << err;
    EXPECT_NE(err.find("plan: 2 tables, 4 cells requested, 2 unique, "
                       "2 executed, 0 resumed, 1 failed"),
              std::string::npos)
        << err;
}

TEST(SuiteThreading, ConcurrentGetReturnsOneInstance)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    const std::vector<std::string> &names = suite.names();
    std::vector<const BenchProgram *> seen(names.size() * 8, nullptr);
    {
        ThreadPool pool(8);
        pool.parallelFor(seen.size(), [&](size_t i) {
            seen[i] = &suite.get(names[i % names.size()]);
        });
    }
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], &suite.get(names[i % names.size()]))
            << "get() must hand out one stable BenchProgram per name";
}

} // namespace
} // namespace cps
