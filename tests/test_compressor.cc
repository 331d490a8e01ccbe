/**
 * @file
 * CodePack compressor/decompressor tests: bit-exact round trips, index
 * table correctness, block escapes, and Table 4 composition accounting.
 */

#include <gtest/gtest.h>

#include "codepack/decompressor.hh"
#include "common/rng.hh"
#include "isa/isa.hh"

namespace cps
{
namespace codepack
{
namespace
{

std::vector<u32>
repetitiveProgram(size_t n, u64 seed = 1)
{
    // Realistic-ish text: a small set of instruction templates repeated
    // with minor variation, so the dictionaries have something to bite.
    Rng rng(seed);
    std::vector<u32> words;
    words.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        Inst inst;
        switch (rng.below(5)) {
          case 0:
            inst.op = Op::Addu;
            inst.rd = static_cast<u8>(rng.below(8) + 8);
            inst.rs = static_cast<u8>(rng.below(8) + 8);
            inst.rt = static_cast<u8>(rng.below(8) + 8);
            break;
          case 1:
            inst.op = Op::Lw;
            inst.rt = static_cast<u8>(rng.below(8) + 8);
            inst.rs = kRegSp;
            inst.imm = static_cast<u16>(4 * rng.below(8));
            break;
          case 2:
            inst.op = Op::Addiu;
            inst.rt = static_cast<u8>(rng.below(4) + 8);
            inst.rs = static_cast<u8>(rng.below(4) + 8);
            inst.imm = static_cast<u16>(rng.below(4));
            break;
          case 3:
            inst.op = Op::Beq;
            inst.rs = static_cast<u8>(rng.below(4) + 8);
            inst.rt = 0;
            inst.imm = static_cast<u16>(rng.below(64));
            break;
          default:
            inst.op = Op::Ori;
            inst.rt = static_cast<u8>(rng.below(4) + 8);
            inst.rs = 0;
            inst.imm = static_cast<u16>(rng.next()); // noisy constants
            break;
        }
        words.push_back(encode(inst));
    }
    return words;
}

std::vector<u32>
randomWords(size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<u32> words;
    for (size_t i = 0; i < n; ++i)
        words.push_back(static_cast<u32>(rng.next()));
    return words;
}

TEST(Compressor, EmptyTextYieldsEmptyImage)
{
    CompressedImage img = compressWords({}, kTextBase);
    EXPECT_EQ(img.numGroups(), 0u);
    EXPECT_EQ(img.bytes.size(), 0u);
    EXPECT_EQ(img.origTextBytes, 0u);
}

TEST(Compressor, PadsToWholeGroups)
{
    CompressedImage img = compressWords({kNopWord}, kTextBase);
    EXPECT_EQ(img.paddedInsns, kGroupInsns);
    EXPECT_EQ(img.numGroups(), 1u);
    EXPECT_EQ(img.numBlocks(), 2u);
    EXPECT_EQ(img.origTextBytes, 4u);
}

TEST(Compressor, RoundTripRepetitiveProgram)
{
    auto words = repetitiveProgram(1000);
    CompressedImage img = compressWords(words, kTextBase);
    Decompressor d(img);
    EXPECT_EQ(d.decompressAll(), words);
}

TEST(Compressor, RoundTripRandomProgramsProperty)
{
    for (u64 seed = 1; seed <= 10; ++seed) {
        auto words = randomWords(64 + seed * 37, seed);
        CompressedImage img = compressWords(words, kTextBase);
        Decompressor d(img);
        EXPECT_EQ(d.decompressAll(), words) << "seed " << seed;
    }
}

TEST(Compressor, RoundTripBlockByBlock)
{
    auto words = repetitiveProgram(320, 9);
    CompressedImage img = compressWords(words, kTextBase);
    Decompressor d(img);
    for (u32 g = 0; g < img.numGroups(); ++g) {
        for (u32 b = 0; b < kBlocksPerGroup; ++b) {
            DecodedBlock blk = d.decompressBlock(g, b);
            for (unsigned i = 0; i < kBlockInsns; ++i) {
                size_t idx = (static_cast<size_t>(g) * 2 + b) * 16 + i;
                u32 expect = idx < words.size() ? words[idx] : kNopWord;
                ASSERT_EQ(blk.words[i], expect)
                    << "group " << g << " block " << b << " insn " << i;
            }
        }
    }
}

TEST(Compressor, EndBitsAreMonotoneAndFinal)
{
    auto words = repetitiveProgram(64, 3);
    CompressedImage img = compressWords(words, kTextBase);
    Decompressor d(img);
    for (u32 fb = 0; fb < img.numBlocks(); ++fb) {
        DecodedBlock blk = d.decompressFlatBlock(fb);
        u32 prev = 0;
        for (unsigned i = 0; i < kBlockInsns; ++i) {
            EXPECT_GT(blk.endBit[i], prev);
            prev = blk.endBit[i];
        }
        EXPECT_EQ((prev + 7) / 8, blk.byteLen);
    }
}

TEST(Compressor, IndexTableOffsetsMatchBlockExtents)
{
    auto words = repetitiveProgram(500, 4);
    CompressedImage img = compressWords(words, kTextBase);
    for (u32 g = 0; g < img.numGroups(); ++g) {
        u32 entry = img.indexTable[g];
        const BlockExtent &b0 = img.blocks[g * 2];
        const BlockExtent &b1 = img.blocks[g * 2 + 1];
        EXPECT_EQ(idxFirstOffset(entry), b0.byteOffset);
        EXPECT_EQ(idxFirstOffset(entry) + idxSecondOffset(entry),
                  b1.byteOffset);
        EXPECT_EQ(idxFirstRaw(entry), b0.raw);
        EXPECT_EQ(idxSecondRaw(entry), b1.raw);
    }
}

TEST(Compressor, BlocksAreByteAlignedAndContiguous)
{
    auto words = repetitiveProgram(500, 5);
    CompressedImage img = compressWords(words, kTextBase);
    u32 expected_off = 0;
    for (const BlockExtent &b : img.blocks) {
        EXPECT_EQ(b.byteOffset, expected_off);
        expected_off += b.byteLen;
    }
    EXPECT_EQ(expected_off, img.bytes.size());
}

TEST(Compressor, RandomWordsEscapeToRawBlocks)
{
    // Pure random words compress terribly; with the escape enabled no
    // block may exceed its native 64 bytes.
    auto words = randomWords(256, 42);
    CompressedImage img = compressWords(words, kTextBase);
    bool any_raw = false;
    for (const BlockExtent &b : img.blocks) {
        EXPECT_LE(b.byteLen, kRawBlockBytes);
        any_raw |= b.raw;
    }
    EXPECT_TRUE(any_raw);
    // And the image never expands beyond native + overheads.
    EXPECT_LE(img.bytes.size(),
              words.size() * 4 + kGroupNativeBytes);
}

TEST(Compressor, EscapeDisabledAllowsExpansion)
{
    CompressorConfig cfg;
    cfg.allowRawBlocks = false;
    auto words = randomWords(256, 43);
    CompressedImage img = compressWords(words, kTextBase, cfg);
    bool any_over = false;
    for (const BlockExtent &b : img.blocks) {
        EXPECT_FALSE(b.raw);
        any_over |= b.byteLen > kRawBlockBytes;
    }
    EXPECT_TRUE(any_over);
    // Still round-trips.
    Decompressor d(img);
    EXPECT_EQ(d.decompressAll(), words);
}

TEST(Compressor, CompositionSumsToTotalSize)
{
    auto words = repetitiveProgram(2000, 6);
    CompressedImage img = compressWords(words, kTextBase);
    const Composition &c = img.comp;
    // Stream bits must equal the compressed region exactly.
    u64 stream_bits = c.compressedTagBits + c.dictIndexBits +
                      c.rawTagBits + c.rawBits + c.padBits;
    EXPECT_EQ(stream_bits, img.bytes.size() * 8);
    // And the total adds the index table and dictionaries.
    EXPECT_EQ(c.totalBits(), stream_bits + c.indexTableBits +
                                 c.dictionaryBits);
    EXPECT_EQ(c.indexTableBits, u64{img.numGroups()} * 32);
}

TEST(Compressor, RepetitiveCodeCompressesWell)
{
    auto words = repetitiveProgram(4000, 7);
    CompressedImage img = compressWords(words, kTextBase);
    // The paper reports 55-65% for real programs; templated code with
    // noisy constants should land well under 100%.
    EXPECT_LT(img.compressionRatio(), 0.80);
    EXPECT_GT(img.compressionRatio(), 0.20);
}

TEST(Compressor, AddressMathHelpers)
{
    auto words = repetitiveProgram(256, 8);
    CompressedImage img = compressWords(words, 0x10000);
    EXPECT_EQ(img.groupOf(0x10000), 0u);
    EXPECT_EQ(img.groupOf(0x10000 + 127), 0u);
    EXPECT_EQ(img.groupOf(0x10000 + 128), 1u);
    EXPECT_EQ(img.blockOf(0x10000), 0u);
    EXPECT_EQ(img.blockOf(0x10000 + 64), 1u);
    EXPECT_EQ(img.flatBlockOf(0x10000 + 128), 2u);
    EXPECT_EQ(img.insnIndexOf(0x10000 + 40), 10u);
}

TEST(Compressor, ProgramOverloadMatchesWordOverload)
{
    // compress(Program) must agree with compressWords on the same text.
    Program prog;
    prog.text.base = kTextBase;
    auto words = repetitiveProgram(100, 11);
    for (u32 w : words) {
        prog.text.bytes.push_back(static_cast<u8>(w));
        prog.text.bytes.push_back(static_cast<u8>(w >> 8));
        prog.text.bytes.push_back(static_cast<u8>(w >> 16));
        prog.text.bytes.push_back(static_cast<u8>(w >> 24));
    }
    CompressedImage a = compress(prog);
    CompressedImage b = compressWords(words, kTextBase);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.indexTable, b.indexTable);
    EXPECT_EQ(a.comp.totalBits(), b.comp.totalBits());
}

TEST(Compressor, DeterministicAcrossRuns)
{
    auto words = repetitiveProgram(512, 12);
    CompressedImage a = compressWords(words, kTextBase);
    CompressedImage b = compressWords(words, kTextBase);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.indexTable, b.indexTable);
}

TEST(Compressor, ByteIdenticalAcrossThreadCounts)
{
    // Images must be byte-for-byte the serial reference at any thread
    // count. A mixed program exercises the histogram, dictionary
    // encode, zero-special and raw-escape paths together.
    auto words = repetitiveProgram(700, 21);
    Rng rng(22);
    for (size_t i = 0; i < words.size(); i += 9)
        words[i] = static_cast<u32>(rng.next()); // sprinkle raw escapes
    CompressorConfig ref_cfg;
    ref_cfg.threads = 1;
    CompressedImage ref = compressWords(words, kTextBase, ref_cfg);
    for (unsigned threads : {2u, 8u}) {
        CompressorConfig cfg;
        cfg.threads = threads;
        CompressedImage img = compressWords(words, kTextBase, cfg);
        EXPECT_EQ(img.bytes, ref.bytes) << "threads=" << threads;
        EXPECT_EQ(img.indexTable, ref.indexTable) << "threads=" << threads;
        EXPECT_EQ(img.comp.totalBits(), ref.comp.totalBits());
    }
}

TEST(Compressor, AllNopsCompressExtremelyWell)
{
    std::vector<u32> words(320, kNopWord);
    CompressedImage img = compressWords(words, kTextBase);
    // hi(0) -> one dictionary slot (6 bits), lo(0) -> the 2-bit zero
    // codeword: 8 bits per 32-bit instruction (ratio 0.25) plus index
    // table, dictionary and padding overheads.
    EXPECT_LT(img.compressionRatio(), 0.35);
    Decompressor d(img);
    EXPECT_EQ(d.decompressAll(), words);
}

} // namespace
} // namespace codepack
} // namespace cps
