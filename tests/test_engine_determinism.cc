/**
 * @file
 * Parallel experiment engine tests: runMatrixCells must return outcomes in
 * submission order and bit-identically to the serial path no matter how
 * many workers execute the runs — that is the contract that lets every
 * table binary fan out across cores and still print byte-identical
 * output. Also covers the Matrix cursor helper and the thread-safe
 * Suite accessors the engine leans on.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/table.hh"
#include "common/threadpool.hh"
#include "harness/engine.hh"

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
