/**
 * @file
 * Synthetic-benchmark generator tests: all six profiles assemble, run,
 * compress losslessly, and land in their calibrated characteristic
 * ranges.
 */

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "codepack/decompressor.hh"
#include "progen/progen.hh"
#include "sim/machine.hh"

namespace cps
{
namespace
{

TEST(Progen, SixStandardProfiles)
{
    const auto &profiles = standardProfiles();
    ASSERT_EQ(profiles.size(), 6u);
    EXPECT_EQ(profiles[0].name, "cc1");
    EXPECT_EQ(profiles[1].name, "go");
    EXPECT_EQ(profiles[2].name, "mpeg2enc");
    EXPECT_EQ(profiles[3].name, "pegwit");
    EXPECT_EQ(profiles[4].name, "perl");
    EXPECT_EQ(profiles[5].name, "vortex");
}

TEST(Progen, FindProfileByName)
{
    EXPECT_EQ(findProfile("go").name, "go");
}

TEST(Progen, GenerationIsDeterministic)
{
    const BenchmarkProfile &p = findProfile("pegwit");
    EXPECT_EQ(generateSource(p), generateSource(p));
}

TEST(Progen, SeedChangesTheProgram)
{
    BenchmarkProfile p = findProfile("pegwit");
    std::string a = generateSource(p);
    p.seed ^= 0x1234;
    EXPECT_NE(a, generateSource(p));
}

class ProfileTest : public ::testing::TestWithParam<const char *>
{};

/** Order-sensitive 64-bit FNV-1a digest. */
struct Digest
{
    u64 h = 0xcbf29ce484222325ULL;

    void
    byte(u8 b)
    {
        h = (h ^ b) * 0x100000001b3ULL;
    }

    void
    number(u64 v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<u8>(v >> (8 * i)));
    }

    template <typename Bytes>
    void
    bytes(const Bytes &seq)
    {
        number(seq.size());
        for (auto b : seq)
            byte(static_cast<u8>(b));
    }
};

TEST_P(ProfileTest, GeneratedBytesArePinned)
{
    // Digests of each calibrated profile's generated source and of the
    // program it assembles to: text and data bytes, symbols and entry.
    // They pin the generator's draw order and the assembler's output.
    struct Pin
    {
        const char *name;
        u64 source;
        u64 program;
    };
    static const Pin pins[] = {
        {"cc1", 0x432cad0d46541ccfULL, 0x39f37138f2b55b91ULL},
        {"go", 0xc471bbba90dcfb0dULL, 0x3b0c4653052fcfcfULL},
        {"mpeg2enc", 0x199140064fa644e8ULL, 0x3041eaaaaa1fa6a5ULL},
        {"pegwit", 0x1c2b4605d57b5a77ULL, 0x89f04c9043c8d78dULL},
        {"perl", 0xb71e6828c29b76b6ULL, 0x317d28a431410096ULL},
        {"vortex", 0xb2c1d0d63a340923ULL, 0xeda271f2e0cac661ULL},
    };
    const std::string name = GetParam();
    const std::string source = generateSource(findProfile(name));
    Digest src;
    src.bytes(source);
    AsmResult res = assembleSource(source);
    ASSERT_TRUE(res.ok());
    const Program &prog = res.program;
    Digest bin;
    bin.number(prog.text.base);
    bin.bytes(prog.text.bytes);
    bin.number(prog.data.base);
    bin.bytes(prog.data.bytes);
    for (const auto &[sym, addr] : prog.symbols) {
        bin.bytes(sym);
        bin.number(addr);
    }
    bin.number(prog.entry);
    for (const Pin &pin : pins) {
        if (name != pin.name)
            continue;
        EXPECT_EQ(src.h, pin.source)
            << strfmt("source digest 0x%016llx",
                      static_cast<unsigned long long>(src.h));
        EXPECT_EQ(bin.h, pin.program)
            << strfmt("program digest 0x%016llx",
                      static_cast<unsigned long long>(bin.h));
        return;
    }
    ADD_FAILURE() << "no pin for " << name;
}

TEST_P(ProfileTest, AssemblesCleanly)
{
    Program prog = generateProgram(findProfile(GetParam()));
    EXPECT_GT(prog.textWords(), 1000u);
    EXPECT_EQ(prog.entry, prog.symbol("main"));
}

TEST_P(ProfileTest, RunsWithoutFaulting)
{
    Program prog = generateProgram(findProfile(GetParam()));
    MainMemory mem;
    mem.loadSegment(prog.text);
    mem.loadSegment(prog.data);
    DecodedText text(prog);
    Executor exec(text, mem);
    exec.reset(prog);
    for (int i = 0; i < 50000 && !exec.halted(); ++i)
        exec.step();
    EXPECT_EQ(exec.instCount(), 50000u); // long-running by design
}

TEST_P(ProfileTest, CompressesLosslessly)
{
    Program prog = generateProgram(findProfile(GetParam()));
    codepack::CompressedImage img = codepack::compress(prog);
    codepack::Decompressor d(img);
    std::vector<u32> words = d.decompressAll();
    ASSERT_EQ(words.size(), prog.textWords());
    for (size_t i = 0; i < words.size(); ++i)
        ASSERT_EQ(words[i], prog.word(i)) << "insn " << i;
}

TEST_P(ProfileTest, CompressionRatioInPaperRange)
{
    Program prog = generateProgram(findProfile(GetParam()));
    codepack::CompressedImage img = codepack::compress(prog);
    // The paper's Table 3 spans 54.9%..63.1%; allow slack around it.
    EXPECT_GT(img.compressionRatio(), 0.45);
    EXPECT_LT(img.compressionRatio(), 0.72);
}

TEST_P(ProfileTest, RawBitsAreASurprisinglyLargeShare)
{
    // Table 4: 14-21% of the compressed region is raw bits; with tags,
    // 19-25% "is not compressed". Check we reproduce that qualitative
    // observation (generous bounds).
    Program prog = generateProgram(findProfile(GetParam()));
    codepack::CompressedImage img = codepack::compress(prog);
    double raw_share =
        static_cast<double>(img.comp.rawBits + img.comp.rawTagBits) /
        static_cast<double>(img.comp.totalBits());
    EXPECT_GT(raw_share, 0.05);
    EXPECT_LT(raw_share, 0.45);
}

TEST_P(ProfileTest, IndexTableShareNearFivePercent)
{
    // Table 4: the index table is 5.0-5.6% of the compressed region.
    Program prog = generateProgram(findProfile(GetParam()));
    codepack::CompressedImage img = codepack::compress(prog);
    double share = static_cast<double>(img.comp.indexTableBits) /
                   static_cast<double>(img.comp.totalBits());
    EXPECT_GT(share, 0.03);
    EXPECT_LT(share, 0.08);
}


TEST_P(ProfileTest, DynamicMixLooksLikeCompiledCode)
{
    // Compiled integer code runs roughly 15-30% memory ops and
    // 10-25% control transfers; the generator should land in a broadly
    // realistic band for every profile.
    Program prog = generateProgram(findProfile(GetParam()));
    MainMemory mem;
    mem.loadSegment(prog.text);
    mem.loadSegment(prog.data);
    DecodedText text(prog);
    Executor exec(text, mem);
    exec.reset(prog);
    for (int i = 0; i < 100000 && !exec.halted(); ++i)
        exec.step();
    const Executor::MixStats &mix = exec.mix();
    double mem_share = static_cast<double>(mix.memOps()) /
                       static_cast<double>(mix.total());
    double ctl_share = static_cast<double>(mix.controlOps()) /
                       static_cast<double>(mix.total());
    EXPECT_GT(mem_share, 0.05) << GetParam();
    EXPECT_LT(mem_share, 0.45) << GetParam();
    EXPECT_GT(ctl_share, 0.04) << GetParam();
    EXPECT_LT(ctl_share, 0.35) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProfileTest,
                         ::testing::Values("cc1", "go", "mpeg2enc",
                                           "pegwit", "perl", "vortex"));

TEST(Progen, TextSizesTrackThePaper)
{
    // Table 3 original sizes (bytes); ours should be within ~25%.
    struct Expect { const char *name; u32 bytes; };
    const Expect table[] = {
        {"cc1", 1083168}, {"go", 310576}, {"mpeg2enc", 118416},
        {"pegwit", 88560}, {"perl", 267568}, {"vortex", 495792},
    };
    for (const Expect &e : table) {
        Program prog = generateProgram(findProfile(e.name));
        double ratio = static_cast<double>(prog.text.bytes.size()) /
                       static_cast<double>(e.bytes);
        EXPECT_GT(ratio, 0.70) << e.name;
        EXPECT_LT(ratio, 1.40) << e.name;
    }
}

TEST(Progen, LoopBenchmarksHaveTinyMissRates)
{
    // mpeg2enc and pegwit are the paper's loop-dominated benchmarks
    // (Table 1: ~0% I-miss at 16KB).
    for (const char *name : {"mpeg2enc", "pegwit"}) {
        Program prog = generateProgram(findProfile(name));
        Machine m(prog, baseline4Issue());
        m.run(300000);
        EXPECT_LT(m.icacheMissRate(), 0.01) << name;
    }
}

TEST(Progen, ControlBenchmarksMissSubstantially)
{
    for (const char *name : {"cc1", "go"}) {
        Program prog = generateProgram(findProfile(name));
        Machine m(prog, baseline4Issue());
        m.run(300000);
        EXPECT_GT(m.icacheMissRate(), 0.02) << name;
        EXPECT_LT(m.icacheMissRate(), 0.15) << name;
    }
}

TEST(Progen, HotFuncsMustBePowerOfTwo)
{
    BenchmarkProfile p = findProfile("go");
    p.numFuncs = 10;
    p.hotFuncs = 8;
    p.numSubs = 4;
    // Power-of-two hotFuncs assemble and run fine.
    Program prog = generateProgram(p);
    EXPECT_GT(prog.textWords(), 100u);
}

} // namespace
} // namespace cps
