/**
 * @file
 * Golden digests of the out-of-order timing model. Each case runs a
 * fixed program on a fixed machine and folds three things into one
 * 64-bit digest: the per-instruction OooTraceEntry stream (pc and the
 * fetch/issue/done/commit cycles), the RunResult, and every simulated
 * StatSet counter with a nonzero value. The host block memo's
 * "hostpf." counters are left out: they count the simulator's own
 * decode work. Zero counters are left out too: StatSet::value reads 0
 * for a name nobody registered, so no reader can tell a zero counter
 * from a missing one. A host-only change to the model (a faster
 * scheduler, a new data layout, a different host block cache) must
 * leave every digest unchanged, down to the issue cycle of each
 * instruction.
 *
 * A deliberate timing change re-records them: each mismatch prints the
 * case name and its new digest.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <string>
#include <vector>

#include "asmkit/assembler.hh"
#include "harness/suite.hh"

namespace cps
{
namespace
{

constexpr u64 kInsns = 20000;

/** Order-sensitive 64-bit digest (splitmix64 chaining). */
struct Digest
{
    u64 h = 0x6a09e667f3bcc909ULL;

    void
    add(u64 v)
    {
        u64 x = h ^ v;
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        h = x ^ (x >> 31);
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (unsigned char c : s)
            add(c);
    }
};

/** Runs @p m for up to @p max_insns and digests its timing. */
u64
timingDigest(Machine &m, u64 max_insns)
{
    std::vector<OooTraceEntry> trace;
    trace.reserve(max_insns);
    m.setOooTraceSink(&trace);
    RunResult r = m.run(max_insns);
    m.setOooTraceSink(nullptr);
    EXPECT_TRUE(r.ok()) << r.statusDetail;
    EXPECT_EQ(trace.size(), r.instructions);

    Digest d;
    d.add(trace.size());
    for (const OooTraceEntry &t : trace) {
        d.add(t.pc);
        d.add(t.fetchedAt);
        d.add(t.issuedAt);
        d.add(t.doneAt);
        d.add(t.committedAt);
    }
    d.add(r.instructions);
    d.add(r.cycles);
    d.add(r.programExited);
    d.add(static_cast<u64>(r.status));
    for (const auto &[name, value] : m.stats().snapshot()) {
        // The host block memo's counters describe the simulator, not
        // the simulated machine; a zero reads the same as no counter.
        if (name.starts_with("hostpf.") || value == 0)
            continue;
        d.add(name);
        d.add(value);
    }
    return d.h;
}

struct Golden
{
    const char *name;
    u64 digest;
};

const Golden kGolden[] = {
    {"cc1/4-issue/native", 0x62db7643c3c82160ULL},
    {"cc1/4-issue/codepack", 0x2db7857c215cd5a4ULL},
    {"cc1/4-issue/optimized", 0x2f5aa5ff936fe9d4ULL},
    {"cc1/8-issue/native", 0x338cbbe29ed139e9ULL},
    {"cc1/8-issue/codepack", 0x9b38bbc3661c3f13ULL},
    {"cc1/8-issue/optimized", 0x0fc12213edd23db9ULL},
    {"go/4-issue/native", 0xeb050472f89aa41dULL},
    {"go/4-issue/codepack", 0x671bf5b49551fecdULL},
    {"go/4-issue/optimized", 0x7adcea1ae70abd4bULL},
    {"go/8-issue/native", 0x64dbaf1161c3a337ULL},
    {"go/8-issue/codepack", 0xd66b7c71571e4613ULL},
    {"go/8-issue/optimized", 0xde3e7df328280fe8ULL},
    {"mpeg2enc/4-issue/native", 0xb7f6862e1971bea0ULL},
    {"mpeg2enc/4-issue/codepack", 0x943d14031a267a3aULL},
    {"mpeg2enc/4-issue/optimized", 0x655aacce5bec7e01ULL},
    {"mpeg2enc/8-issue/native", 0xb3dac96bab60396eULL},
    {"mpeg2enc/8-issue/codepack", 0x6101880907aca03fULL},
    {"mpeg2enc/8-issue/optimized", 0xecd6cb932c102616ULL},
    {"pegwit/4-issue/native", 0x0fbd0f8270227116ULL},
    {"pegwit/4-issue/codepack", 0xb1c44e1af73e6b0dULL},
    {"pegwit/4-issue/optimized", 0x36884603d7684a50ULL},
    {"pegwit/8-issue/native", 0x4cbca56374a0c623ULL},
    {"pegwit/8-issue/codepack", 0xe271404b4c97b220ULL},
    {"pegwit/8-issue/optimized", 0x5e74da12423c54daULL},
    {"perl/4-issue/native", 0xdffc4ce0e65c0042ULL},
    {"perl/4-issue/codepack", 0x7e0f85cbf98a9a9aULL},
    {"perl/4-issue/optimized", 0x54b6f9189f763c1aULL},
    {"perl/8-issue/native", 0xc8128c4e353bab55ULL},
    {"perl/8-issue/codepack", 0xd1707fad50163ca5ULL},
    {"perl/8-issue/optimized", 0xe55f07585936dba1ULL},
    {"vortex/4-issue/native", 0x2053642ebcde7bacULL},
    {"vortex/4-issue/codepack", 0x3a24055115284bb1ULL},
    {"vortex/4-issue/optimized", 0x9ee2f5502184e49fULL},
    {"vortex/8-issue/native", 0x770a17768244abccULL},
    {"vortex/8-issue/codepack", 0xad5f1f53cc8a04f2ULL},
    {"vortex/8-issue/optimized", 0x74d0292ac17cf2b1ULL},
    {"perl-s5eed1/ruu24-lsq6/native", 0x4f86ce23f9f6fe3eULL},
    {"perl-s5eed1/ruu24-lsq6/codepack", 0xede119d35180e45aULL},
    {"perl-s5eed1/2wide-1alu-1mem/native", 0xf632c756d0bdbbdaULL},
    {"perl-s5eed1/2wide-1alu-1mem/codepack", 0x16a6937eaa40fec1ULL},
    {"perl-s5eed1/8wide-lsq4/native", 0xcf3058e21565ce65ULL},
    {"perl-s5eed1/8wide-lsq4/codepack", 0xe5e9fef59899b6f7ULL},
    {"mpeg2enc-s5eed2/ruu24-lsq6/native", 0xa832e69286b9d685ULL},
    {"mpeg2enc-s5eed2/ruu24-lsq6/codepack", 0xe75a1e0a84ab29bbULL},
    {"mpeg2enc-s5eed2/2wide-1alu-1mem/native", 0x480d2300dbb7105aULL},
    {"mpeg2enc-s5eed2/2wide-1alu-1mem/codepack", 0x8fc5c95259fed63bULL},
    {"mpeg2enc-s5eed2/8wide-lsq4/native", 0x4d4b55e0ae5f09c8ULL},
    {"mpeg2enc-s5eed2/8wide-lsq4/codepack", 0x447a1eb96c94b7caULL},
    {"multdiv/4-issue", 0x55709b7eb4bc77c6ULL},
    {"multdiv/8-issue", 0x0153c900a46f9dc7ULL},
    {"multdiv/2wide-1alu-1mem", 0xe790d7ac9cc86f10ULL},
};

void
expectGolden(const std::string &name, u64 got)
{
    for (const Golden &g : kGolden) {
        if (name == g.name) {
            EXPECT_EQ(got, g.digest)
                << name << ": digest "
                << strfmt("0x%016" PRIx64, got) << " != golden "
                << strfmt("0x%016" PRIx64, g.digest);
            return;
        }
    }
    ADD_FAILURE() << "no golden digest for " << name << "; record {\""
                  << name << "\", " << strfmt("0x%016" PRIx64, got)
                  << "ULL},";
}

const char *
modelName(CodeModel model)
{
    switch (model) {
      case CodeModel::Native:
        return "native";
      case CodeModel::CodePack:
        return "codepack";
      case CodeModel::CodePackOptimized:
        return "optimized";
      default:
        return "?";
    }
}

const codepack::CompressedImage *
imageFor(const codepack::CompressedImage &img, CodeModel model)
{
    return model == CodeModel::Native ? nullptr : &img;
}

// -------------------------------------------------- Table 5 OoO cells

class OooGoldenProfile : public ::testing::TestWithParam<const char *>
{};

TEST_P(OooGoldenProfile, Table5CellsMatchGolden)
{
    const BenchProgram &bench = Suite::instance().get(GetParam());
    for (const MachineConfig &base : {baseline4Issue(), baseline8Issue()}) {
        for (CodeModel model : {CodeModel::Native, CodeModel::CodePack,
                                CodeModel::CodePackOptimized}) {
            MachineConfig cfg = base.withCodeModel(model);
            // The matrix's arrangement, as runMachine builds it. Without
            // a covering trace (CPS_TRACE_INSNS=0) the machine runs
            // live, which is timing-identical to replay.
            Machine m(bench.program, bench.text(), cfg,
                      imageFor(bench.image, model),
                      replayTrace(bench, cfg, kInsns));
            expectGolden(std::string(GetParam()) + "/" + cfg.name + "/" +
                             modelName(model),
                         timingDigest(m, kInsns));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Profiles, OooGoldenProfile,
                         ::testing::Values("cc1", "go", "mpeg2enc",
                                           "pegwit", "perl", "vortex"));

// ------------------------------------------------------- corner configs

/** Resource corners the Table 2 machines never reach. */
std::vector<MachineConfig>
cornerConfigs()
{
    // A ring whose capacity is not a power of two, with a tight LSQ.
    MachineConfig ruu24 = baseline4Issue();
    ruu24.name = "ruu24-lsq6";
    ruu24.pipeline.ruuSize = 24;
    ruu24.pipeline.lsqSize = 6;

    // Structural hazards on every cycle: one ALU, one memory port.
    MachineConfig narrow = baseline4Issue();
    narrow.name = "2wide-1alu-1mem";
    narrow.pipeline.width = 2;
    narrow.pipeline.numAlu = 1;
    narrow.pipeline.numMemPorts = 1;

    // A wide machine starved by its load/store queue.
    MachineConfig lsq4 = baseline8Issue();
    lsq4.name = "8wide-lsq4";
    lsq4.pipeline.lsqSize = 4;

    return {ruu24, narrow, lsq4};
}

TEST(OooGolden, CornerConfigsOnReseededPrograms)
{
    struct Reseed
    {
        const char *profile;
        u64 seed;
    };
    for (const Reseed &rs : {Reseed{"perl", 0x5eed1}, Reseed{"mpeg2enc",
                                                             0x5eed2}}) {
        BenchmarkProfile profile = findProfile(rs.profile);
        profile.seed = rs.seed;
        Program prog = generateProgram(profile);
        codepack::CompressedImage img = codepack::compress(prog);
        TraceBuffer trace = recordTrace(prog, kInsns + 256);
        for (const MachineConfig &corner : cornerConfigs()) {
            for (CodeModel model :
                 {CodeModel::Native, CodeModel::CodePack}) {
                MachineConfig cfg = corner.withCodeModel(model);
                ASSERT_TRUE(trace.covers(kInsns, replayLookahead(cfg)));
                Machine m(prog, cfg, imageFor(img, model), &trace);
                expectGolden(strfmt("%s-s%llx/%s/%s", rs.profile,
                                    static_cast<unsigned long long>(
                                        rs.seed),
                                    cfg.name.c_str(), modelName(model)),
                             timingDigest(m, kInsns));
            }
        }
    }
}

// ---------------------------------------------------- multiply / divide

/**
 * Dependent and independent integer multiplies, divides and remainders
 * (the divides hold the single multiply unit for their full latency),
 * FP multiply/divide on the single FP multiply unit, and store->load
 * pairs through the same words, in a loop.
 */
const char *kMultDivProgram = R"(
main:
    la    $s0, buf
    li    $t9, 150
    li    $t0, 12345
    li    $t1, 7
    mtc1  $t1, $f1
    cvt.s.w $f1, $f1
loop:
    mul   $t2, $t0, $t1
    div   $t3, $t2, $t1
    mul   $t4, $t3, $t3
    rem   $t5, $t4, $t1
    mul   $s1, $t1, $t1
    mulu  $s2, $t0, $t0
    addu  $t0, $t0, $t5
    sw    $t2, 0($s0)
    lw    $t6, 0($s0)
    divu  $t7, $t6, $t1
    remu  $s3, $t0, $t1
    mul   $t8, $t6, $t1
    sw    $t8, 4($s0)
    lw    $t2, 4($s0)
    mul.s $f2, $f1, $f1
    div.s $f3, $f2, $f1
    mul.s $f4, $f3, $f2
    addiu $t1, $t1, 2
    andi  $t1, $t1, 15
    ori   $t1, $t1, 1
    addiu $t9, $t9, -1
    bgtz  $t9, loop
    li    $v0, 10
    syscall
.data
buf: .space 8
)";

TEST(OooGolden, MultDivHeavyOnOneMultiplyUnit)
{
    Program prog = assembleOrDie(kMultDivProgram);
    for (const MachineConfig &cfg :
         {baseline4Issue(), baseline8Issue(), cornerConfigs()[1]}) {
        ASSERT_EQ(cfg.pipeline.numMult, 1u);
        Machine m(prog, cfg);
        expectGolden("multdiv/" + cfg.name, timingDigest(m, 1000000));
        EXPECT_GT(m.stats().value("pipeline.insns"), 3000u);
    }
}

} // namespace
} // namespace cps
