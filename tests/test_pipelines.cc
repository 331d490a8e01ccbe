/**
 * @file
 * Timing-pipeline tests: in-order and out-of-order models on crafted
 * microbenchmarks with known cycle behaviour.
 */

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "pipeline/inorder.hh"
#include "pipeline/ooo.hh"
#include "sim/machine.hh"

namespace cps
{
namespace
{

/** Wires a program to a pipeline over a native fetch path. */
struct TimedEnv
{
    Program prog;
    MainMemory mem;
    DecodedText text;
    Executor exec;
    LiveTraceSource src;
    StatSet stats;
    NativeFetchPath fetch;
    DataPath data;

    explicit TimedEnv(const std::string &asm_src,
                      CacheConfig icache = CacheConfig{16 * 1024, 32, 2})
        : prog(assembleOrDie(asm_src)), text(prog), exec(text, mem),
          src(exec), fetch(icache, mem, stats),
          data(CacheConfig{16 * 1024, 16, 2}, mem, stats)
    {
        mem.loadSegment(prog.text);
        mem.loadSegment(prog.data);
        exec.reset(prog);
    }

    RunResult
    runInOrder(u64 max = 1000000)
    {
        PipelineConfig cfg = baseline1Issue().pipeline;
        InOrderPipeline pipe(cfg, src, fetch, data, stats);
        return pipe.run(max);
    }

    RunResult
    runOoO(u64 max = 1000000, unsigned width = 4)
    {
        PipelineConfig cfg = width == 8 ? baseline8Issue().pipeline
                                        : baseline4Issue().pipeline;
        OoOPipeline pipe(cfg, src, fetch, data, stats);
        return pipe.run(max);
    }
};

std::string
unrolledDependentAdds(int n)
{
    std::string src = "main:\n li $t0, 0\n";
    for (int i = 0; i < n; ++i)
        src += " addiu $t0, $t0, 1\n";
    src += " li $v0, 10\n syscall\n";
    return src;
}

/** A loop whose warm body is @p body dependent adds (IPC cap: 1). */
std::string
loopedDependentAdds(int body, int iters)
{
    std::string src = strfmt("main:\n li $t9, %d\nloop:\n", iters);
    for (int i = 0; i < body; ++i)
        src += " addiu $t0, $t0, 1\n";
    src += " addiu $t9, $t9, -1\n bgtz $t9, loop\n";
    src += " li $v0, 10\n syscall\n";
    return src;
}

/** A loop whose warm body is @p body independent adds (high ILP). */
std::string
loopedIndependentAdds(int body, int iters)
{
    std::string src = strfmt("main:\n li $t8, %d\nloop:\n", iters);
    for (int i = 0; i < body; ++i)
        src += strfmt(" addiu $t%d, $zero, 1\n", i % 8);
    src += " addiu $t8, $t8, -1\n bgtz $t8, loop\n";
    src += " li $v0, 10\n syscall\n";
    return src;
}

TEST(InOrder, RunsToCompletion)
{
    TimedEnv env("main:\n li $v0, 10\n syscall\n");
    RunResult r = env.runInOrder();
    EXPECT_TRUE(r.programExited);
    EXPECT_EQ(r.instructions, 2u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(InOrder, DependentChainIpcApproachesOne)
{
    // A warm loop: after the first iteration the I-cache hits, so the
    // 1-wide pipe approaches IPC 1.
    TimedEnv env(loopedDependentAdds(100, 100));
    RunResult r = env.runInOrder();
    EXPECT_LE(r.ipc(), 1.0);
    EXPECT_GT(r.ipc(), 0.85);
}

TEST(InOrder, IndependentStreamAlsoCapsAtOne)
{
    TimedEnv env(loopedIndependentAdds(100, 100));
    RunResult r = env.runInOrder();
    EXPECT_LE(r.ipc(), 1.0);
    EXPECT_GT(r.ipc(), 0.85);
}

TEST(InOrder, ColdStraightLineCodeIsFetchBound)
{
    // The same instruction count with no reuse pays a compulsory miss
    // on every line: IPC collapses well below 1.
    TimedEnv env(unrolledDependentAdds(400));
    RunResult r = env.runInOrder();
    EXPECT_LT(r.ipc(), 0.7);
}

TEST(InOrder, LoadUseBubbleCosts)
{
    // Load feeding its consumer vs. load with independent work after --
    // inside a warm loop, so fetch does not mask the bubble.
    std::string head = "main:\n la $t9, buf\n li $t8, 50\nloop:\n";
    std::string dep = head, indep = head;
    for (int i = 0; i < 50; ++i) {
        dep += " lw $t0, 0($t9)\n addu $t1, $t0, $t0\n";
        indep += " lw $t0, 0($t9)\n addu $t1, $t2, $t2\n";
    }
    std::string tail = " addiu $t8, $t8, -1\n bgtz $t8, loop\n"
                       " li $v0, 10\n syscall\n.data\nbuf: .word 1\n";
    TimedEnv a(dep + tail), b(indep + tail);
    RunResult ra = a.runInOrder();
    RunResult rb = b.runInOrder();
    EXPECT_GT(ra.cycles, rb.cycles);
}

TEST(InOrder, MultiCycleOpsBlockThePipe)
{
    std::string divs = "main:\n li $t0, 100\n li $t1, 3\n";
    for (int i = 0; i < 50; ++i)
        divs += " div $t2, $t0, $t1\n";
    divs += " li $v0, 10\n syscall\n";
    TimedEnv env(divs);
    RunResult r = env.runInOrder();
    // Each div occupies EX for 20 cycles.
    EXPECT_GT(r.cycles, 50u * 20u);
}

TEST(InOrder, MispredictsCostCycles)
{
    // A data-dependent alternating branch the bimodal predictor cannot
    // learn, vs. an always-taken loop branch it can.
    std::string noisy = R"(
main:
    li $t0, 400
    li $t1, 0
loop:
    andi $t2, $t0, 1
    beqz $t2, skip
    addiu $t1, $t1, 1
skip:
    addiu $t0, $t0, -1
    bgtz $t0, loop
    li $v0, 10
    syscall
)";
    TimedEnv env(noisy);
    RunResult r = env.runInOrder();
    EXPECT_TRUE(r.programExited);
    EXPECT_GT(env.stats.value("bpred.cond_branches"), 700u);
    // The alternating beqz mispredicts roughly half the time.
    EXPECT_GT(env.stats.value("bpred.dir_mispredicts"), 100u);
}

TEST(InOrder, RespectsMaxInsns)
{
    TimedEnv env(R"(
main:
loop:
    addiu $t0, $t0, 1
    b loop
)");
    RunResult r = env.runInOrder(1000);
    EXPECT_EQ(r.instructions, 1000u);
    EXPECT_FALSE(r.programExited);
}

// ------------------------------------------------------------------ OoO

TEST(OoO, RunsToCompletion)
{
    TimedEnv env("main:\n li $v0, 10\n syscall\n");
    RunResult r = env.runOoO();
    EXPECT_TRUE(r.programExited);
    EXPECT_EQ(r.instructions, 2u);
}

TEST(OoO, IndependentStreamExceedsScalarIpc)
{
    TimedEnv env(loopedIndependentAdds(200, 100));
    RunResult r = env.runOoO();
    EXPECT_GT(r.ipc(), 1.8);
    EXPECT_LE(r.ipc(), 4.0);
}

TEST(OoO, DependentChainIsSerialized)
{
    TimedEnv env(loopedDependentAdds(200, 100));
    RunResult r = env.runOoO();
    EXPECT_LE(r.ipc(), 1.1);
    EXPECT_GT(r.ipc(), 0.8);
}

TEST(OoO, EightWideBeatsFourWideOnParallelWork)
{
    TimedEnv a(loopedIndependentAdds(200, 100));
    TimedEnv b(loopedIndependentAdds(200, 100));
    RunResult r4 = a.runOoO(1000000, 4);
    RunResult r8 = b.runOoO(1000000, 8);
    EXPECT_LT(r8.cycles, r4.cycles);
}

TEST(OoO, DivsSerializeOnTheSingleUnit)
{
    std::string divs = "main:\n li $t0, 100\n li $t1, 3\n";
    for (int i = 0; i < 50; ++i)
        divs += strfmt(" div $t%d, $t0, $t1\n", 2 + (i % 6));
    divs += " li $v0, 10\n syscall\n";
    TimedEnv env(divs);
    RunResult r = env.runOoO();
    // 50 divides through one non-pipelined unit: >= 50 * 20 cycles.
    EXPECT_GT(r.cycles, 1000u);
}

TEST(OoO, IndependentMulsArePipelined)
{
    // Pipelined multiplies: much better than non-pipelined divides.
    std::string muls = "main:\n li $t0, 7\n li $t1, 3\n";
    for (int i = 0; i < 50; ++i)
        muls += strfmt(" mul $t%d, $t0, $t1\n", 2 + (i % 6));
    muls += " li $v0, 10\n syscall\n";
    TimedEnv env(muls);
    RunResult r = env.runOoO();
    EXPECT_LT(r.cycles, 300u);
}

TEST(OoO, StoreLoadSameWordObeysOrder)
{
    std::string src = R"(
main:
    la $t9, buf
    li $t0, 123
    sw $t0, 0($t9)
    lw $t1, 0($t9)
    addu $t2, $t1, $t1
    li $v0, 10
    syscall
.data
buf: .word 0
)";
    TimedEnv env(src);
    RunResult r = env.runOoO();
    EXPECT_TRUE(r.programExited);
    // Functional result is exact (oracle), timing just has to finish.
    EXPECT_EQ(env.exec.state().readGpr(10), 246u);
}

TEST(OoO, SyscallSerializesButCompletes)
{
    std::string src = "main:\n";
    for (int i = 0; i < 5; ++i)
        src += " li $v0, 11\n li $a0, 65\n syscall\n";
    src += " li $v0, 10\n syscall\n";
    TimedEnv env(src);
    RunResult r = env.runOoO();
    EXPECT_TRUE(r.programExited);
    EXPECT_EQ(env.exec.output(), "AAAAA");
}

TEST(OoO, ColdIcacheCostsMoreThanWarm)
{
    // Same code, tiny vs large I-cache.
    std::string body = loopedIndependentAdds(200, 20);
    TimedEnv small(body, CacheConfig{1024, 32, 2});
    TimedEnv big(body, CacheConfig{64 * 1024, 32, 2});
    RunResult rs = small.runOoO();
    RunResult rb = big.runOoO();
    // A pure sweep misses either way (compulsory); sizes equal here, so
    // compare against a loop that refetches instead.
    EXPECT_GE(rs.cycles, rb.cycles);
}

TEST(OoO, LoopRefetchHitsInBigCacheOnly)
{
    std::string loop = R"(
main:
    li $t0, 50
outer:
)";
    for (int i = 0; i < 600; ++i)
        loop += " addu $t1, $t2, $t3\n";
    loop += R"(
    addiu $t0, $t0, -1
    bgtz $t0, outer
    li $v0, 10
    syscall
)";
    TimedEnv small(loop, CacheConfig{1024, 32, 2});  // 600 insns > 1KB
    TimedEnv big(loop, CacheConfig{16 * 1024, 32, 2});
    RunResult rs = small.runOoO();
    RunResult rb = big.runOoO();
    EXPECT_GT(rs.cycles, rb.cycles * 3 / 2);
    EXPECT_GT(small.stats.value("icache.misses"),
              big.stats.value("icache.misses") * 10);
}

TEST(OoO, RespectsMaxInsns)
{
    TimedEnv env("main:\nloop:\n addiu $t0, $t0, 1\n b loop\n");
    RunResult r = env.runOoO(5000);
    EXPECT_GE(r.instructions, 5000u);
    EXPECT_LE(r.instructions, 5003u); // may finish the commit group
    EXPECT_FALSE(r.programExited);
}


TEST(OoO, SmallerRuuHurtsMemoryLevelParallelism)
{
    // Independent loads from distinct cold D-cache lines: a large RUU
    // overlaps the misses, a tiny one serializes them.
    std::string src = "main:\n la $t9, buf\n li $t8, 20\nloop:\n";
    for (int i = 0; i < 16; ++i)
        src += strfmt(" lw $t%d, %d($t9)\n", i % 8, i * 1024);
    src += " addiu $t8, $t8, -1\n bgtz $t8, loop\n"
           " li $v0, 10\n syscall\n.data\nbuf: .space 32768\n";

    TimedEnv big(src), small(src);
    PipelineConfig big_cfg = baseline4Issue().pipeline;
    PipelineConfig small_cfg = big_cfg;
    small_cfg.ruuSize = 4;
    small_cfg.lsqSize = 2;
    OoOPipeline pb(big_cfg, big.src, big.fetch, big.data, big.stats);
    OoOPipeline ps(small_cfg, small.src, small.fetch, small.data,
                   small.stats);
    RunResult rb = pb.run(100000);
    RunResult rs = ps.run(100000);
    EXPECT_LT(rb.cycles, rs.cycles);
}

TEST(OoO, LsqLimitCapsOutstandingMemOps)
{
    // A burst of stores beyond the LSQ size must still complete.
    std::string src = "main:\n la $t9, buf\n";
    for (int i = 0; i < 64; ++i)
        src += strfmt(" sw $t0, %d($t9)\n", i * 4);
    src += " li $v0, 10\n syscall\n.data\nbuf: .space 512\n";
    TimedEnv env(src);
    PipelineConfig cfg = baseline4Issue().pipeline;
    cfg.lsqSize = 4;
    OoOPipeline pipe(cfg, env.src, env.fetch, env.data, env.stats);
    RunResult r = pipe.run(100000);
    EXPECT_TRUE(r.programExited);
    EXPECT_EQ(r.instructions, 64u + 4u);
}

TEST(OoO, FpWorkUsesFpUnits)
{
    std::string src = R"(
main:
    li $t0, 3
    mtc1 $t0, $f1
    cvt.s.w $f1, $f1
    li $t8, 50
loop:
)";
    for (int i = 0; i < 20; ++i)
        src += strfmt(" mul.s $f%d, $f1, $f1\n", 2 + (i % 6));
    src += R"(
    addiu $t8, $t8, -1
    bgtz $t8, loop
    li $v0, 10
    syscall
)";
    TimedEnv env(src);
    RunResult r = env.runOoO();
    EXPECT_TRUE(r.programExited);
    // 1000 pipelined 4-cycle FP muls on one unit: >= ~1000 cycles.
    EXPECT_GT(r.cycles, 900u);
}


TEST(InOrder, TraceSinkRecordsTimeline)
{
    TimedEnv env(R"(
main:
    li $t0, 1
    addu $t1, $t0, $t0
    li $v0, 10
    syscall
)");
    std::vector<PipeTraceEntry> trace;
    PipelineConfig cfg = baseline1Issue().pipeline;
    InOrderPipeline pipe(cfg, env.src, env.fetch, env.data, env.stats);
    pipe.setTraceSink(&trace);
    pipe.run(100);
    ASSERT_EQ(trace.size(), 4u);
    // Chronology: fetch before execute before result; program order in
    // fetch times on a 1-wide in-order machine.
    for (const PipeTraceEntry &e : trace) {
        EXPECT_LE(e.fetchDone, e.execute);
        EXPECT_LE(e.execute, e.resultAt);
    }
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_GT(trace[i].fetchDone, trace[i - 1].fetchDone);
    EXPECT_EQ(trace[1].inst.op, Op::Addu);
}


TEST(OoO, TraceSinkShowsOverlap)
{
    // Two independent adds dispatch together and issue in the same
    // cycle on a 4-wide machine; the trace must show the overlap.
    TimedEnv env(R"(
main:
    addiu $t0, $zero, 1
    addiu $t1, $zero, 2
    addu $t2, $t0, $t1
    li $v0, 10
    syscall
)");
    std::vector<OooTraceEntry> trace;
    PipelineConfig cfg = baseline4Issue().pipeline;
    OoOPipeline pipe(cfg, env.src, env.fetch, env.data, env.stats);
    pipe.setTraceSink(&trace);
    pipe.run(100);
    ASSERT_EQ(trace.size(), 5u);
    // Commit order is program order.
    for (size_t i = 1; i < trace.size(); ++i)
        EXPECT_GE(trace[i].committedAt, trace[i - 1].committedAt);
    // The two independent adds issue in the same cycle.
    EXPECT_EQ(trace[0].issuedAt, trace[1].issuedAt);
    // The dependent add issues only after both produce.
    EXPECT_GE(trace[2].issuedAt, trace[0].doneAt);
    EXPECT_GE(trace[2].issuedAt, trace[1].doneAt);
    // Sanity on each record's internal ordering.
    for (const OooTraceEntry &e : trace) {
        EXPECT_LE(e.fetchedAt, e.issuedAt);
        EXPECT_LE(e.issuedAt, e.doneAt);
        EXPECT_LT(e.doneAt, e.committedAt);
    }
    EXPECT_EQ(trace[2].inst.op, Op::Addu);
}

TEST(OoO, CyclesAreDeterministic)
{
    std::string src = unrolledDependentAdds(500);
    TimedEnv a(src), b(src);
    EXPECT_EQ(a.runOoO().cycles, b.runOoO().cycles);
}

} // namespace
} // namespace cps
