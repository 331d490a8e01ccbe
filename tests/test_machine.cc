/**
 * @file
 * End-to-end machine tests: the three Table 2 machines under the three
 * code models, architectural equivalence of compressed execution, and
 * the qualitative performance relations the paper reports.
 */

#include <gtest/gtest.h>

#include "harness/suite.hh"

namespace cps
{
namespace
{

TEST(MachineConfigs, Table2Presets)
{
    MachineConfig c1 = baseline1Issue();
    EXPECT_TRUE(c1.pipeline.inOrder);
    EXPECT_EQ(c1.pipeline.width, 1u);
    EXPECT_EQ(c1.icache.sizeBytes, 8u * 1024);
    EXPECT_EQ(c1.dcache.lineBytes, 16u);
    EXPECT_EQ(c1.pipeline.predictor, PredictorKind::Bimodal2k);

    MachineConfig c4 = baseline4Issue();
    EXPECT_FALSE(c4.pipeline.inOrder);
    EXPECT_EQ(c4.pipeline.width, 4u);
    EXPECT_EQ(c4.icache.sizeBytes, 16u * 1024);
    EXPECT_EQ(c4.pipeline.numAlu, 4u);
    EXPECT_EQ(c4.pipeline.numMemPorts, 2u);
    EXPECT_EQ(c4.pipeline.predictor, PredictorKind::Gshare14);

    MachineConfig c8 = baseline8Issue();
    EXPECT_EQ(c8.pipeline.width, 8u);
    EXPECT_EQ(c8.icache.sizeBytes, 32u * 1024);
    EXPECT_EQ(c8.pipeline.predictor, PredictorKind::Hybrid1k);

    // Shared memory system (Table 2: same for all three).
    EXPECT_EQ(c1.mem.busWidthBits, 64u);
    EXPECT_EQ(c1.mem.firstAccess, 10u);
    EXPECT_EQ(c1.mem.beatRate, 2u);
}

TEST(Machine, CodePackModelsNeedAnImage)
{
    EXPECT_DEATH(
        {
            const BenchProgram &b = Suite::instance().get("pegwit");
            Machine m(b.program,
                      baseline4Issue().withCodeModel(CodeModel::CodePack),
                      nullptr);
        },
        "compressed image");
}

class CodeModelTest : public ::testing::TestWithParam<CodeModel>
{};

TEST_P(CodeModelTest, ExecutionIsArchitecturallyIdentical)
{
    const BenchProgram &b = Suite::instance().get("pegwit");
    MachineConfig cfg = baseline4Issue().withCodeModel(GetParam());
    Machine m(b.program, cfg, &b.image);
    RunResult r = m.run(50000);
    EXPECT_GE(r.instructions, 50000u);
    // Compare architectural state with a plain native run.
    Machine ref(b.program, baseline4Issue(), nullptr);
    RunResult rr = ref.run(50000);
    EXPECT_EQ(r.instructions, rr.instructions);
    EXPECT_EQ(m.executor().state().gpr, ref.executor().state().gpr);
    EXPECT_EQ(m.executor().state().pc, ref.executor().state().pc);
}

INSTANTIATE_TEST_SUITE_P(AllModels, CodeModelTest,
                         ::testing::Values(CodeModel::Native,
                                           CodeModel::CodePack,
                                           CodeModel::CodePackOptimized));

TEST(Machine, DeterministicCycles)
{
    const BenchProgram &b = Suite::instance().get("go");
    for (CodeModel model : {CodeModel::Native, CodeModel::CodePack}) {
        MachineConfig cfg = baseline4Issue().withCodeModel(model);
        RunOutcome a = runMachine(b, cfg, 100000);
        RunOutcome c = runMachine(b, cfg, 100000);
        EXPECT_EQ(a.result.cycles, c.result.cycles);
    }
}

TEST(Machine, MissCountsIdenticalAcrossCodeModels)
{
    // The I-cache sees the same access stream whichever way misses are
    // filled, so miss counts must match between native and CodePack.
    const BenchProgram &b = Suite::instance().get("go");
    RunOutcome native = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::Native), 150000);
    RunOutcome cp = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::CodePack), 150000);
    EXPECT_EQ(native.icacheMisses, cp.icacheMisses);
}

TEST(Machine, OptimizedBeatsBaselineDecompressor)
{
    // Paper §5.3: the index cache + wider decoder always help.
    const BenchProgram &b = Suite::instance().get("cc1");
    RunOutcome cp = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::CodePack), 200000);
    RunOutcome opt = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::CodePackOptimized),
        200000);
    EXPECT_LT(opt.result.cycles, cp.result.cycles);
}

TEST(Machine, BaselineCodePackSlowerThanNativeOnCc1)
{
    // Paper §5.2: compressed code loses to native on the miss-heavy
    // benchmarks with the baseline decompressor.
    const BenchProgram &b = Suite::instance().get("cc1");
    RunOutcome native = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::Native), 200000);
    RunOutcome cp = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::CodePack), 200000);
    EXPECT_GT(cp.result.cycles, native.result.cycles);
    // ... but the loss is bounded (paper: < 18% at 4-issue).
    EXPECT_LT(speedup(native, cp), 1.0);
    EXPECT_GT(speedup(native, cp), 0.78);
}

TEST(Machine, LowMissBenchmarksAreInsensitive)
{
    // Paper §5.2: mpeg2enc and pegwit show no significant difference.
    const BenchProgram &b = Suite::instance().get("mpeg2enc");
    RunOutcome native = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::Native), 200000);
    RunOutcome cp = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::CodePack), 200000);
    double s = speedup(native, cp);
    EXPECT_GT(s, 0.97);
    EXPECT_LT(s, 1.03);
}

TEST(Machine, PerfectIndexCacheAtLeastAsGoodAsReal)
{
    const BenchProgram &b = Suite::instance().get("go");
    MachineConfig real = baseline4Issue();
    real.codeModel = CodeModel::CodePackCustom;
    real.decomp = codepack::DecompressorConfig::optimized();
    MachineConfig perfect = real;
    perfect.decomp.perfectIndexCache = true;
    RunOutcome r = runMachine(b, real, 150000);
    RunOutcome p = runMachine(b, perfect, 150000);
    EXPECT_LE(p.result.cycles, r.result.cycles);
}

TEST(Machine, NarrowBusFavoursCompression)
{
    // Paper Table 11: on a 16-bit bus the optimized decompressor beats
    // native code on miss-heavy benchmarks.
    const BenchProgram &b = Suite::instance().get("go");
    MachineConfig native = baseline4Issue();
    native.mem.busWidthBits = 16;
    MachineConfig opt = native.withCodeModel(CodeModel::CodePackOptimized);
    RunOutcome rn = runMachine(b, native, 150000);
    RunOutcome ro = runMachine(b, opt, 150000);
    EXPECT_GT(speedup(rn, ro), 1.0);
}

TEST(Machine, SmallCachePenalizesBaselineCodePack)
{
    // Paper Table 10 at 1KB: baseline CodePack loses clearly; the
    // optimized decompressor wins clearly.
    const BenchProgram &b = Suite::instance().get("cc1");
    MachineConfig native = baseline4Issue();
    native.icache = CacheConfig{1024, 32, 2};
    MachineConfig cp = native.withCodeModel(CodeModel::CodePack);
    MachineConfig opt = native.withCodeModel(CodeModel::CodePackOptimized);
    RunOutcome rn = runMachine(b, native, 150000);
    RunOutcome rc = runMachine(b, cp, 150000);
    RunOutcome ro = runMachine(b, opt, 150000);
    EXPECT_LT(speedup(rn, rc), 0.97);
    EXPECT_GT(speedup(rn, ro), 1.10);
}

TEST(Machine, StatsExposeDecompressorBehaviour)
{
    const BenchProgram &b = Suite::instance().get("go");
    MachineConfig cfg = baseline4Issue().withCodeModel(CodeModel::CodePack);
    Machine m(b.program, cfg, &b.image);
    m.run(100000);
    EXPECT_GT(m.stats().value("decomp.misses"), 0u);
    EXPECT_GT(m.stats().value("decomp.buffer_hits"), 0u);
    EXPECT_GT(m.stats().value("decomp.index_lookups"), 0u);
    ASSERT_NE(m.decompressor(), nullptr);
    EXPECT_EQ(m.decompressor()->config().decodeRate, 1u);
}

TEST(Machine, NativeMachineHasNoDecompressor)
{
    const BenchProgram &b = Suite::instance().get("go");
    Machine m(b.program, baseline4Issue(), nullptr);
    EXPECT_EQ(m.decompressor(), nullptr);
}

TEST(Machine, SoftwareDecompressionIsArchitecturallyExact)
{
    const BenchProgram &b = Suite::instance().get("pegwit");
    MachineConfig cfg =
        baseline1Issue().withCodeModel(CodeModel::CodePackSoftware);
    Machine m(b.program, cfg, &b.image);
    RunResult r = m.run(50000);
    Machine ref(b.program, baseline1Issue(), nullptr);
    RunResult rr = ref.run(50000);
    EXPECT_EQ(r.instructions, rr.instructions);
    EXPECT_EQ(m.executor().state().gpr, ref.executor().state().gpr);
    EXPECT_GT(m.stats().value("swdecomp.traps"), 0u);
}

TEST(Machine, SoftwareDecompressionSlowerThanHardware)
{
    // The trap + serial software decode must cost more per miss than
    // the hardware engine on a miss-heavy benchmark.
    const BenchProgram &b = Suite::instance().get("cc1");
    RunOutcome hw = runMachine(
        b, baseline1Issue().withCodeModel(CodeModel::CodePack), 150000);
    RunOutcome sw = runMachine(
        b, baseline1Issue().withCodeModel(CodeModel::CodePackSoftware),
        150000);
    EXPECT_GT(sw.result.cycles, hw.result.cycles);
}

TEST(Machine, SoftwareHandlerCostScalesWithDecodeRate)
{
    const BenchProgram &b = Suite::instance().get("go");
    MachineConfig fast =
        baseline1Issue().withCodeModel(CodeModel::CodePackSoftware);
    fast.software.cyclesPerInsn = 2;
    MachineConfig slow = fast;
    slow.software.cyclesPerInsn = 16;
    RunOutcome rf = runMachine(b, fast, 150000);
    RunOutcome rs = runMachine(b, slow, 150000);
    EXPECT_LT(rf.result.cycles, rs.result.cycles);
}

TEST(Machine, SoftwareScratchpadServesOtherLine)
{
    const BenchProgram &b = Suite::instance().get("go");
    MachineConfig cfg =
        baseline1Issue().withCodeModel(CodeModel::CodePackSoftware);
    Machine m(b.program, cfg, &b.image);
    m.run(150000);
    EXPECT_GT(m.stats().value("swdecomp.buffer_hits"), 0u);
}

TEST(Machine, SlowMemoryFavoursOptimizedCodePack)
{
    // Paper Table 12: with 8x memory latency the optimized decompressor
    // beats native (fewer, costlier accesses).
    const BenchProgram &b = Suite::instance().get("cc1");
    MachineConfig native = baseline4Issue();
    native.mem.firstAccess = 80;
    native.mem.beatRate = 16;
    RunOutcome rn = runMachine(b, native, 150000);
    RunOutcome ro = runMachine(
        b, native.withCodeModel(CodeModel::CodePackOptimized), 150000);
    EXPECT_GT(speedup(rn, ro), 1.02);
}

TEST(Machine, WideBusErodesCodePackAdvantage)
{
    // Paper Table 11: the baseline decompressor degrades relative to
    // native as the bus widens.
    const BenchProgram &b = Suite::instance().get("cc1");
    double s_narrow, s_wide;
    {
        MachineConfig native = baseline4Issue();
        native.mem.busWidthBits = 16;
        RunOutcome rn = runMachine(b, native, 150000);
        RunOutcome rc = runMachine(
            b, native.withCodeModel(CodeModel::CodePack), 150000);
        s_narrow = speedup(rn, rc);
    }
    {
        MachineConfig native = baseline4Issue();
        native.mem.busWidthBits = 128;
        RunOutcome rn = runMachine(b, native, 150000);
        RunOutcome rc = runMachine(
            b, native.withCodeModel(CodeModel::CodePack), 150000);
        s_wide = speedup(rn, rc);
    }
    EXPECT_GT(s_narrow, s_wide);
}


TEST(Machine, EightIssueArchitecturallyExactUnderCodePack)
{
    const BenchProgram &b = Suite::instance().get("pegwit");
    Machine m(b.program,
              baseline8Issue().withCodeModel(CodeModel::CodePackOptimized),
              &b.image);
    RunResult r = m.run(50000);
    Machine ref(b.program, baseline8Issue(), nullptr);
    RunResult rr = ref.run(50000);
    EXPECT_EQ(r.instructions, rr.instructions);
    EXPECT_EQ(m.executor().state().gpr, ref.executor().state().gpr);
}

TEST(Machine, InOrderCodePackRunsAndLoses)
{
    // 1-issue embedded machine: baseline CodePack must run exactly and
    // lose a little on the miss-heavy benchmark (paper: < 14% loss).
    const BenchProgram &b = Suite::instance().get("cc1");
    RunOutcome native = runMachine(b, baseline1Issue(), 150000);
    RunOutcome cp = runMachine(
        b, baseline1Issue().withCodeModel(CodeModel::CodePack), 150000);
    double s = speedup(native, cp);
    EXPECT_LT(s, 1.0);
    EXPECT_GT(s, 0.86);
}

TEST(Machine, MissLatencyStatTracksFigure2)
{
    // Average critical-word latency must sit at or above the Figure 2
    // native anchor (10 cycles) and be finite.
    const BenchProgram &b = Suite::instance().get("go");
    Machine m(b.program, baseline4Issue(), nullptr);
    m.run(150000);
    u64 misses = m.stats().value("icache.misses");
    u64 latency = m.stats().value("icache.miss_latency_total");
    ASSERT_GT(misses, 0u);
    double avg = static_cast<double>(latency) /
                 static_cast<double>(misses);
    EXPECT_GE(avg, 10.0);
    EXPECT_LT(avg, 100.0);
}


/** Optimized CodePack must never lose to baseline on any benchmark. */
class BenchSweep : public ::testing::TestWithParam<const char *>
{};

TEST_P(BenchSweep, OptimizedNeverSlowerThanBaselineCodePack)
{
    const BenchProgram &b = Suite::instance().get(GetParam());
    RunOutcome cp = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::CodePack), 100000);
    RunOutcome opt = runMachine(
        b, baseline4Issue().withCodeModel(CodeModel::CodePackOptimized),
        100000);
    EXPECT_LE(opt.result.cycles, cp.result.cycles);
}

TEST_P(BenchSweep, CompressedRunsAreArchitecturallyExact)
{
    const BenchProgram &b = Suite::instance().get(GetParam());
    Machine m(b.program,
              baseline4Issue().withCodeModel(CodeModel::CodePack),
              &b.image);
    m.run(60000);
    Machine ref(b.program, baseline4Issue(), nullptr);
    ref.run(60000);
    EXPECT_EQ(m.executor().state().gpr, ref.executor().state().gpr);
    EXPECT_EQ(m.executor().state().fpr, ref.executor().state().fpr);
    EXPECT_EQ(m.executor().state().pc, ref.executor().state().pc);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchSweep,
                         ::testing::Values("cc1", "go", "mpeg2enc",
                                           "pegwit", "perl", "vortex"));

TEST(Suite, CachesGeneratedBenchmarks)
{
    const BenchProgram &a = Suite::instance().get("pegwit");
    const BenchProgram &b = Suite::instance().get("pegwit");
    EXPECT_EQ(&a, &b);
}

TEST(Suite, RunInsnsDefaultsToOneMillion)
{
    // (Environment overrides are exercised manually; the default must
    // hold when CPS_INSNS is unset.)
    if (getenv("CPS_INSNS") == nullptr) {
        EXPECT_EQ(Suite::runInsns(), 1000000u);
    }
}

} // namespace
} // namespace cps
