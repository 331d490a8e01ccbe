/**
 * @file
 * BlockFetcher tests: byte-identity of every cached block against the
 * checked bit-serial reference across all suite profiles, LRU
 * aliasing/eviction edge cases, counter conservation, and the
 * soft-error domain paths. Concurrent fetchers over one shared
 * Decompressor double as the TSan workload for the decoder's shared
 * read-only state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "codepack/block_fetcher.hh"
#include "codepack/resilience.hh"
#include "common/logging.hh"
#include "harness/suite.hh"

namespace cps
{
namespace codepack
{
namespace
{

void
expectBlockEq(const DecodedBlock &got, const DecodedBlock &want,
              u32 flat)
{
    ASSERT_EQ(got.words, want.words) << "flat block " << flat;
    ASSERT_EQ(got.endBit, want.endBit) << "flat block " << flat;
    ASSERT_EQ(got.byteOffset, want.byteOffset) << "flat block " << flat;
    ASSERT_EQ(got.byteLen, want.byteLen) << "flat block " << flat;
}

/**
 * Sweeps @p fetcher over every block of @p img — forward, then a
 * strided revisit — checking each returned block against the checked
 * bit-serial reference decoder.
 */
void
checkByteIdentity(const CompressedImage &img, BlockFetcher &fetcher)
{
    Decompressor ref(img);
    u32 n = img.numBlocks();
    for (u32 f = 0; f < n; ++f) {
        Result<DecodedBlock> want =
            ref.tryDecompressBlock(f / kBlocksPerGroup,
                                   f % kBlocksPerGroup);
        ASSERT_TRUE(want.ok());
        expectBlockEq(fetcher.getFlat(f), *want, f);
    }
    // A non-unit revisit mixes evicted blocks with still-resident
    // ones.
    for (u32 f = 0; f + 3 < n; f += 3) {
        Result<DecodedBlock> want =
            ref.tryDecompressBlock(f / kBlocksPerGroup,
                                   f % kBlocksPerGroup);
        ASSERT_TRUE(want.ok());
        expectBlockEq(fetcher.getFlat(f), *want, f);
    }
}

TEST(BlockFetcher, ByteIdenticalToReferenceOnAllProfiles)
{
    for (const std::string &name : Suite::instance().names()) {
        SCOPED_TRACE(name);
        const BenchProgram &bench = Suite::instance().get(name);
        Decompressor d(bench.image);
        BlockFetcher fetcher(d);
        checkByteIdentity(bench.image, fetcher);
        EXPECT_GE(fetcher.fills(), bench.image.numBlocks());
    }
}

TEST(BlockFetcher, GroupBlockKeyMatchesFlatKey)
{
    const BenchProgram &bench = Suite::instance().get("pegwit");
    Decompressor d(bench.image);
    BlockFetcher fetcher(d);
    for (u32 g = 0; g < std::min<u32>(bench.image.numGroups(), 64);
         ++g) {
        for (u32 b = 0; b < kBlocksPerGroup; ++b) {
            DecodedBlock got = fetcher.get(g, b);
            expectBlockEq(fetcher.getFlat(g * kBlocksPerGroup + b), got,
                          g * kBlocksPerGroup + b);
        }
    }
}

TEST(BlockFetcher, TinyCacheEvictsLeastRecentlyUsed)
{
    const BenchProgram &bench = Suite::instance().get("pegwit");
    Decompressor d(bench.image);
    BlockFetcher f(d, nullptr, nullptr, /*slots=*/2);
    ASSERT_GE(bench.image.numBlocks(), 3u);

    f.getFlat(0); // fill {0}
    f.getFlat(1); // fill {0,1}
    f.getFlat(0); // hit, 0 becomes MRU
    f.getFlat(2); // fill, evicts LRU=1 -> {0,2}
    f.getFlat(0); // hit
    f.getFlat(1); // fill again (was evicted) -> evicts 2
    f.getFlat(2); // fill again
    EXPECT_EQ(f.fills(), 5u);
    EXPECT_EQ(f.hits(), 2u);
}

TEST(BlockFetcher, SingleSlotCacheStaysCorrect)
{
    const BenchProgram &bench = Suite::instance().get("pegwit");
    Decompressor d(bench.image);
    BlockFetcher f(d, nullptr, nullptr, /*slots=*/1);
    u32 n = std::min<u32>(bench.image.numBlocks(), 64);
    for (int pass = 0; pass < 2; ++pass) {
        for (u32 b = 0; b < n; ++b) {
            Result<DecodedBlock> want = d.tryDecompressBlock(
                b / kBlocksPerGroup, b % kBlocksPerGroup);
            ASSERT_TRUE(want.ok());
            expectBlockEq(f.getFlat(b), *want, b);
        }
    }
    EXPECT_EQ(f.fills(), static_cast<u64>(2 * n));
}

TEST(BlockFetcher, CountersConserveAccesses)
{
    const BenchProgram &bench = Suite::instance().get("go");
    Decompressor d(bench.image);
    u32 n = bench.image.numBlocks();
    BlockFetcher f(d);
    u64 accesses = 0;
    // Sequential, strided, pseudo-random and hot-loop phases.
    for (u32 b = 0; b < n; ++b, ++accesses)
        f.getFlat(b);
    for (u32 b = 0; b + 7 < n; b += 7, ++accesses)
        f.getFlat(b);
    for (u32 i = 0; i < 1000; ++i, ++accesses)
        f.getFlat((i * 2654435761u) % n);
    for (u32 pass = 0; pass < 4; ++pass)
        for (u32 b = 0; b < std::min<u32>(n, 16); ++b, ++accesses)
            f.getFlat(b);
    EXPECT_EQ(f.hits() + f.fills(), accesses);
    EXPECT_GT(f.hits(), 0u);
}

TEST(BlockFetcher, ConcurrentFetchersShareOneDecompressor)
{
    // Several fetchers (each single-consumer, as required) over the
    // same decompressor, running concurrently: exercises parallel
    // decodes over the decoder's shared tables under TSan.
    const BenchProgram &bench = Suite::instance().get("go");
    Decompressor d(bench.image);
    u32 n = bench.image.numBlocks();
    std::vector<std::thread> threads;
    std::vector<int> failures(4, 0);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            BlockFetcher f(d);
            for (u32 b = 0; b < n; ++b) {
                u32 flat = (b + static_cast<u32>(t) * 17) % n;
                const DecodedBlock &got = f.getFlat(flat);
                Result<DecodedBlock> want = d.tryDecompressBlock(
                    flat / kBlocksPerGroup, flat % kBlocksPerGroup);
                if (!want.ok() || got.words != (*want).words)
                    ++failures[t];
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;
}

/** A protected working copy of @p name's image plus its domain. */
struct DomainRig
{
    CompressedImage img;
    std::unique_ptr<SoftErrorDomain> domain;
    std::unique_ptr<Decompressor> decomp;

    DomainRig(const std::string &name, ProtectKind kind,
              unsigned retries = 2)
        : img(Suite::instance().get(name).image)
    {
        protectImage(img, kind);
        domain = std::make_unique<SoftErrorDomain>(img, retries);
        decomp = std::make_unique<Decompressor>(img);
    }
};

/** Flips @p bit of flat block @p flat in the working image. */
void
flipWorkingBit(CompressedImage &img, u32 flat, u32 bit)
{
    const BlockExtent &b = img.blocks[flat];
    ASSERT_LT(bit, b.byteLen * 8u);
    img.bytes[b.byteOffset + bit / 8] ^= static_cast<u8>(1u << (bit % 8));
}

/** First flat block with at least @p bytes of stream data. */
u32
firstBlockWithBytes(const CompressedImage &img, u32 bytes)
{
    for (u32 f = 0; f < img.numBlocks(); ++f)
        if (img.blocks[f].byteLen >= bytes)
            return f;
    ADD_FAILURE() << "no block with " << bytes << " bytes";
    return 0;
}

TEST(BlockFetcherDomain, SecDedZeroFlipsIsByteIdentical)
{
    // Protection on, no faults: the fetch path must decode every block
    // bit-identically to the unprotected reference.
    DomainRig rig("pegwit", ProtectKind::SecDed);
    BlockFetcher f(*rig.decomp, nullptr, rig.domain.get());
    checkByteIdentity(rig.img, f);
    EXPECT_EQ(f.poisons(), 0u);
    EXPECT_EQ(rig.domain->stats().unrecoverable, 0u);
    EXPECT_EQ(f.lastCheck(), FetchCheck::Clean);
}

TEST(BlockFetcherDomain, CorrectsSingleFlipAndPoisonsStaleCopy)
{
    DomainRig rig("pegwit", ProtectKind::SecDed);
    BlockFetcher f(*rig.decomp, nullptr, rig.domain.get());

    u32 flat = firstBlockWithBytes(rig.img, 2);
    Result<DecodedBlock> want = rig.decomp->tryDecompressBlock(
        flat / kBlocksPerGroup, flat % kBlocksPerGroup);
    ASSERT_TRUE(want.ok());

    expectBlockEq(f.getFlat(flat), *want, flat); // now cached

    flipWorkingBit(rig.img, flat, 5);
    rig.domain->noteCorruption();

    // The verify-first fetch repairs memory in place and discards the
    // (possibly stale) cached copy rather than trusting it.
    Result<const DecodedBlock *> r = f.tryGetFlat(flat);
    ASSERT_TRUE(r.ok()) << r.error().describe();
    expectBlockEq(**r, *want, flat);
    EXPECT_EQ(f.lastCheck(), FetchCheck::Corrected);
    EXPECT_GE(f.poisons(), 1u);
    EXPECT_EQ(rig.domain->stats().corrected, 1u);
    EXPECT_EQ(rig.domain->stats().unrecoverable, 0u);

    // Memory was repaired: the next fetch verifies clean.
    expectBlockEq(f.getFlat(flat), *want, flat);
    EXPECT_EQ(f.lastCheck(), FetchCheck::Clean);
}

TEST(BlockFetcherDomain, RefetchRecoversWhatCrcOnlyDetects)
{
    DomainRig rig("pegwit", ProtectKind::Crc16);
    BlockFetcher f(*rig.decomp, nullptr, rig.domain.get());
    u32 flat = firstBlockWithBytes(rig.img, 2);
    Result<DecodedBlock> want = rig.decomp->tryDecompressBlock(
        flat / kBlocksPerGroup, flat % kBlocksPerGroup);
    ASSERT_TRUE(want.ok());

    expectBlockEq(f.getFlat(flat), *want, flat);
    flipWorkingBit(rig.img, flat, 9);
    rig.domain->noteCorruption();

    Result<const DecodedBlock *> r = f.tryGetFlat(flat);
    ASSERT_TRUE(r.ok()) << r.error().describe();
    expectBlockEq(**r, *want, flat);
    EXPECT_EQ(f.lastCheck(), FetchCheck::Refetched);
    EXPECT_GE(rig.domain->stats().refetches, 1u);
    EXPECT_EQ(rig.domain->stats().unrecoverable, 0u);
}

TEST(BlockFetcherDomain, UnrecoverableSurfacesStructuredError)
{
    DomainRig rig("pegwit", ProtectKind::Crc8);
    BlockFetcher f(*rig.decomp, nullptr, rig.domain.get());
    u32 flat = firstBlockWithBytes(rig.img, 2);

    (void)f.getFlat(flat);
    // Damage the working copy AND the refetch source at the same bit:
    // detection persists through the whole retry budget.
    flipWorkingBit(rig.img, flat, 3);
    rig.domain->corruptBacking(flat, 3);
    rig.domain->noteCorruption();

    Result<const DecodedBlock *> r = f.tryGetFlat(flat);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().status, DecodeStatus::SoftError);
    EXPECT_NE(r.error().message.find(
                  strfmt("group %u block %u", flat / kBlocksPerGroup,
                         flat % kBlocksPerGroup)),
              std::string::npos)
        << r.error().message;
    EXPECT_EQ(f.lastCheck(), FetchCheck::Unrecoverable);
    EXPECT_GE(f.poisons(), 1u);
    EXPECT_EQ(rig.domain->stats().unrecoverable, 1u);

    // Other blocks keep fetching normally after the failure.
    u32 other = (flat + 1) % rig.img.numBlocks();
    if (other != flat) {
        EXPECT_TRUE(f.tryGetFlat(other).ok());
    }
}

TEST(BlockFetcherDomain, FlipEveryBlockSoakStaysByteIdentical)
{
    // Each sweep flips one bit in every block that has stream bytes,
    // SEC-DED correcting each one in place on its fetch — decode output
    // never changes. The reference decodes a copy taken before the
    // first flip, since the working image is corrupt until fetched.
    DomainRig rig("pegwit", ProtectKind::SecDed);
    const CompressedImage pristine = rig.img;
    BlockFetcher f(*rig.decomp, nullptr, rig.domain.get());
    u64 flips = 0;
    for (unsigned sweep = 0; sweep < 3; ++sweep) {
        for (u32 flat = 0; flat < rig.img.numBlocks(); ++flat) {
            u32 bits = rig.img.blocks[flat].byteLen * 8;
            if (bits == 0)
                continue;
            flipWorkingBit(rig.img, flat, (flat * 7 + sweep * 13) % bits);
            ++flips;
        }
        rig.domain->noteCorruption();
        checkByteIdentity(pristine, f);
    }
    EXPECT_GT(flips, 0u);
    EXPECT_EQ(rig.domain->stats().corrected, flips);
    EXPECT_EQ(rig.domain->stats().unrecoverable, 0u);
}

TEST(BlockFetcherDomain, CountersConserveAccessesThroughPoisons)
{
    DomainRig rig("go", ProtectKind::SecDed);
    BlockFetcher f(*rig.decomp, nullptr, rig.domain.get());
    u32 n = rig.img.numBlocks();
    ASSERT_GT(n, f.slots());
    u64 accesses = 0;
    for (u32 b = 0; b < n; ++b, ++accesses)
        ASSERT_TRUE(f.tryGetFlat(b).ok());
    // Corrupt a few of the blocks the first sweep left resident (its
    // last f.slots()), then sweep again from the resident end down, so
    // each cached copy of a flipped block is found stale and poisoned:
    // every poisoned re-decode must be accounted as a fill.
    for (u32 b = n - f.slots(); b < n; b += 7)
        if (rig.img.blocks[b].byteLen > 0)
            flipWorkingBit(rig.img, b, 1);
    rig.domain->noteCorruption();
    for (u32 b = n; b-- > 0; ++accesses)
        ASSERT_TRUE(f.tryGetFlat(b).ok());
    EXPECT_EQ(f.hits() + f.fills(), accesses);
    EXPECT_GT(f.poisons(), 0u);
    EXPECT_GT(rig.domain->stats().corrected, 0u);
    // Verify-first repaired memory in place, so the whole image still
    // decodes byte-identically.
    checkByteIdentity(rig.img, f);
}

} // namespace
} // namespace codepack
} // namespace cps
