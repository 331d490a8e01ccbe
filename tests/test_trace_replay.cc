/**
 * @file
 * Trace-replay equivalence: a timing run that replays a recorded
 * instruction stream must be indistinguishable — RunResult and every
 * counter in the StatSet — from one that drives the functional executor
 * live. This is the contract that lets harness::Suite execute each
 * benchmark once and replay it under every machine configuration.
 * Also covers the TraceBuffer coverage rules and the live-execution
 * fallback for truncated traces.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/trace.hh"
#include "harness/suite.hh"

namespace cps
{
namespace
{

constexpr u64 kInsns = 20000;

const codepack::CompressedImage *
imageFor(const BenchProgram &bench, const MachineConfig &cfg)
{
    return cfg.codeModel == CodeModel::Native ? nullptr : &bench.image;
}

void
expectSameRun(const RunResult &a, const RunResult &b,
              const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.programExited, b.programExited) << what;
}

TEST(TraceReplay, EveryProfileEveryPipelineMatchesLiveExactly)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    const MachineConfig configs[] = {
        baseline1Issue(),
        baseline1Issue().withCodeModel(CodeModel::CodePack),
        baseline4Issue(),
        baseline4Issue().withCodeModel(CodeModel::CodePack),
    };
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        ASSERT_TRUE(bench.trace) << name;
        for (const MachineConfig &cfg : configs) {
            ASSERT_TRUE(bench.trace->covers(kInsns, replayLookahead(cfg)));
            std::string what = name + " / " + cfg.name +
                               (cfg.codeModel == CodeModel::Native
                                    ? " native"
                                    : " codepack");

            Machine live(bench.program, cfg, imageFor(bench, cfg));
            ASSERT_FALSE(live.replaying());
            RunResult lr = live.run(kInsns);

            Machine replay(bench.program, cfg, imageFor(bench, cfg),
                           bench.trace.get());
            ASSERT_TRUE(replay.replaying());
            RunResult rr = replay.run(kInsns);

            expectSameRun(lr, rr, what);
            EXPECT_EQ(live.stats().snapshot(), replay.stats().snapshot())
                << "StatSet diverged for " << what;

            // The matrix's arrangement: replay over the bench's one
            // shared decoded text, which the machine only borrows.
            Machine shared(bench.program, bench.text(), cfg,
                           imageFor(bench, cfg), bench.trace.get());
            ASSERT_TRUE(shared.replaying());
            RunResult sr = shared.run(kInsns);

            expectSameRun(lr, sr, what + " (shared text)");
            EXPECT_EQ(live.stats().snapshot(), shared.stats().snapshot())
                << "StatSet diverged for " << what << " (shared text)";
        }
    }
}

TEST(TraceReplay, RecordedStreamMatchesExecutorStepForStep)
{
    const BenchProgram &bench = Suite::instance().get("go");
    TraceBuffer trace = recordTrace(bench.program, 5000);
    ASSERT_EQ(trace.size(), 5000u); // go runs far longer than the cap
    EXPECT_FALSE(trace.complete());

    MainMemory mem;
    mem.loadSegment(bench.program.text);
    mem.loadSegment(bench.program.data);
    DecodedText text(bench.program);
    Executor exec(text, mem);
    exec.reset(bench.program);
    TraceReplaySource src(trace, text);
    for (size_t i = 0; i < trace.size(); ++i) {
        StepRecord live = exec.step();
        StepRecord rep = src.step();
        ASSERT_EQ(live.pc, rep.pc) << "step " << i;
        ASSERT_EQ(live.nextPc, rep.nextPc) << "step " << i;
        ASSERT_EQ(live.memAddr, rep.memAddr) << "step " << i;
        ASSERT_EQ(live.taken, rep.taken) << "step " << i;
        ASSERT_EQ(live.halted, rep.halted) << "step " << i;
        ASSERT_EQ(live.inst, rep.inst) << "step " << i;
        ASSERT_EQ(live.info, rep.info) << "step " << i;
    }
}

TEST(TraceReplay, CoverageRules)
{
    const BenchProgram &bench = Suite::instance().get("pegwit");
    TraceBuffer trace = recordTrace(bench.program, 1000);
    ASSERT_EQ(trace.size(), 1000u);
    EXPECT_FALSE(trace.complete());

    // In-order consumes exactly the retired count; OoO fetches ahead.
    EXPECT_TRUE(trace.covers(1000, 0));
    EXPECT_FALSE(trace.covers(1000, replayLookahead(baseline4Issue())));
    EXPECT_TRUE(trace.covers(800, replayLookahead(baseline4Issue())));
    EXPECT_FALSE(trace.covers(2000, 0));

    // A trace that ends with the program's exit covers any run length.
    TraceBuffer done = recordTrace(bench.program, 1000);
    done.markComplete();
    EXPECT_TRUE(done.covers(1u << 30, 4096));
}

TEST(TraceReplay, TruncatedTraceFallsBackToLiveExecution)
{
    Suite &suite = Suite::instance();
    const BenchProgram &full = suite.get("go");

    // A clone whose trace is too short for kInsns: runMachine must fall
    // back to live execution and still produce identical outcomes.
    BenchProgram clone;
    clone.profile = full.profile;
    clone.program = full.program;
    clone.image = full.image;
    clone.trace = std::make_unique<const TraceBuffer>(
        recordTrace(clone.program, 1000));

    MachineConfig cfg = baseline4Issue();
    ASSERT_FALSE(clone.trace->covers(kInsns, replayLookahead(cfg)));
    RunOutcome fallback = runMachine(clone, cfg, kInsns);
    Machine live(full.program, cfg, imageFor(full, cfg));
    ASSERT_FALSE(live.replaying());
    RunResult lr = live.run(kInsns);
    expectSameRun(fallback.result, lr, "truncated fallback");
    EXPECT_EQ(fallback.icacheMisses, live.stats().value("icache.misses"));
    EXPECT_EQ(fallback.missLatencyTotal,
              live.stats().value("icache.miss_latency_total"));
}

TEST(TraceReplay, ReplaySourceRewindRestartsTheStream)
{
    const BenchProgram &bench = Suite::instance().get("pegwit");
    TraceBuffer trace = recordTrace(bench.program, 16);
    DecodedText text(bench.program);
    TraceReplaySource src(trace, text);
    StepRecord first = src.step();
    src.step();
    src.rewind();
    StepRecord again = src.step();
    EXPECT_EQ(first.pc, again.pc);
    EXPECT_EQ(first.nextPc, again.nextPc);
    EXPECT_FALSE(src.halted());
}

} // namespace
} // namespace cps
