/**
 * @file
 * Artifact-cache contract tests: hit/miss/round-trip, the pinned entry
 * layout, corrupt-entry fallback (a damaged cache may cost recompute
 * time, never output), key sensitivity to every pregeneration input,
 * concurrent same-key writers, warm builds that really hit, and
 * byte-identity of the parallel compressors against the serial
 * reference at CPS_THREADS-style worker counts 1 and 8. Also the
 * whole-file writer's failure reporting, which store() relies on.
 */

#include <chrono>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "asmkit/objfile.hh"
#include "codepack/imagefile.hh"
#include "common/artifact_cache.hh"
#include "common/byteio.hh"
#include "common/crc32.hh"
#include "compress/ccrp.hh"
#include "harness/suite.hh"
#include "progen/progen.hh"

using namespace cps;

namespace
{

/** A fresh scratch cache directory, removed on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name)
        : path("artifact_cache_test_" + name)
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

std::vector<u8>
somePayload(size_t n, u8 salt)
{
    std::vector<u8> p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = static_cast<u8>(salt + i * 31);
    return p;
}

/** The entry store() must write, built field by field. */
std::vector<u8>
handBuiltEntry(const std::string &key, const std::vector<u8> &payload)
{
    std::vector<u8> e = {'C', 'P', 'S', 'A', 'R', 'T', '1', '\0'};
    auto le32 = [&e](u32 v) {
        for (int i = 0; i < 4; ++i)
            e.push_back(static_cast<u8>(v >> (8 * i)));
    };
    le32(static_cast<u32>(key.size()));
    e.insert(e.end(), key.begin(), key.end());
    le32(static_cast<u32>(payload.size()));
    e.insert(e.end(), payload.begin(), payload.end());
    le32(crc32(e));
    return e;
}

/** A small profile so generate/compress/trace stay fast. */
BenchmarkProfile
tinyProfile()
{
    BenchmarkProfile p = standardProfiles()[0]; // cc1
    p.name = "cc1"; // must stay a findProfile() name for build paths
    return p;
}

} // namespace

TEST(ArtifactCache, MissThenHitRoundTrip)
{
    ScratchDir dir("roundtrip");
    ArtifactCache cache(dir.path, true);
    const std::string key = "k1;some=input";
    EXPECT_FALSE(cache.load(key).has_value()); // cold: miss
    std::vector<u8> payload = somePayload(1000, 7);
    ASSERT_TRUE(cache.store(key, payload));
    auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, payload); // warm: hit, byte-exact
    EXPECT_FALSE(cache.load("k1;some=other").has_value());
}

TEST(ArtifactCache, DisabledCacheNeverStoresOrLoads)
{
    ScratchDir dir("disabled");
    ArtifactCache cache(dir.path, false);
    EXPECT_FALSE(cache.store("k", somePayload(10, 1)));
    EXPECT_FALSE(cache.load("k").has_value());
    EXPECT_FALSE(std::filesystem::exists(dir.path));
}

TEST(ArtifactCache, CorruptEntryIsAMiss)
{
    ScratchDir dir("corrupt");
    ArtifactCache cache(dir.path, true);
    const std::string key = "corruptible";
    ASSERT_TRUE(cache.store(key, somePayload(500, 3)));

    // Flip one payload byte in the entry file: the envelope CRC must
    // reject it (silent fallback, no crash).
    std::string path = cache.entryPath(key);
    auto bytes = readFileBytes(path);
    ASSERT_TRUE(bytes.has_value());
    (*bytes)[bytes->size() / 2] ^= 0x40;
    ASSERT_TRUE(writeFileBytes(path, *bytes));
    EXPECT_FALSE(cache.load(key).has_value());

    // Truncation is also a miss, not an error.
    bytes->resize(bytes->size() / 2);
    ASSERT_TRUE(writeFileBytes(path, *bytes));
    EXPECT_FALSE(cache.load(key).has_value());

    // Storing again repairs the entry.
    std::vector<u8> fresh = somePayload(500, 9);
    ASSERT_TRUE(cache.store(key, fresh));
    auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, fresh);
}

TEST(ArtifactCache, EntryLayoutIsPinnedAndEveryFieldIsVerified)
{
    ScratchDir dir("layout");
    ArtifactCache cache(dir.path, true);
    const std::string key = "pinned;layout=1";
    const std::string path = cache.entryPath(key);
    for (size_t size : {size_t{0}, size_t{1} << 20}) {
        SCOPED_TRACE("payload of " + std::to_string(size) + " bytes");
        const std::vector<u8> payload = somePayload(size, 5);
        ASSERT_TRUE(cache.store(key, payload));
        const std::vector<u8> entry = handBuiltEntry(key, payload);
        auto stored = readFileBytes(path);
        ASSERT_TRUE(stored.has_value());
        ASSERT_TRUE(*stored == entry) << "entry bytes differ from layout";
        auto loaded = cache.load(key);
        ASSERT_TRUE(loaded.has_value());
        ASSERT_TRUE(*loaded == payload);

        // Field starts: magic, key length, key, payload length,
        // payload, CRC.
        const size_t key_at = 12;
        const size_t len_at = key_at + key.size();
        const size_t payload_at = len_at + 4;
        const size_t crc_at = payload_at + size;
        const std::vector<size_t> starts = {0,      8,          key_at,
                                            len_at, payload_at, crc_at};
        for (size_t f = 0; f < starts.size(); ++f) {
            const size_t begin = starts[f];
            const size_t end =
                f + 1 < starts.size() ? starts[f + 1] : entry.size();
            if (begin < end) {
                for (size_t at : {begin, (begin + end) / 2, end - 1}) {
                    std::vector<u8> bad = entry;
                    bad[at] ^= 0x01;
                    ASSERT_TRUE(writeFileBytes(path, bad));
                    EXPECT_FALSE(cache.load(key).has_value())
                        << "flipped byte " << at << " in field " << f;
                }
            }
            // Truncated at the start of the field (the last field's
            // start also truncates the CRC away entirely).
            std::vector<u8> cut(entry.begin(),
                                entry.begin() + static_cast<long>(begin));
            ASSERT_TRUE(writeFileBytes(path, cut));
            EXPECT_FALSE(cache.load(key).has_value())
                << "truncated at byte " << begin;
        }
        std::vector<u8> cut(entry.begin(), entry.end() - 1);
        ASSERT_TRUE(writeFileBytes(path, cut));
        EXPECT_FALSE(cache.load(key).has_value()) << "CRC cut short";
        std::vector<u8> padded = entry;
        padded.push_back(0);
        ASSERT_TRUE(writeFileBytes(path, padded));
        EXPECT_FALSE(cache.load(key).has_value()) << "trailing byte";

        // The pristine bytes load again: the mutations caused the misses.
        ASSERT_TRUE(writeFileBytes(path, entry));
        loaded = cache.load(key);
        ASSERT_TRUE(loaded.has_value());
        EXPECT_TRUE(*loaded == payload);
    }
}

TEST(ByteIo, WriteFailsWhenTheFinalFlushFails)
{
    // /dev/full takes the open and a small buffered fwrite; the ENOSPC
    // surfaces only when fclose flushes the buffer.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    EXPECT_FALSE(writeFileBytes("/dev/full", somePayload(100, 1)));
    EXPECT_FALSE(writeFileBytes("/dev/full", somePayload(1 << 20, 1)));
    const std::vector<u8> head = somePayload(16, 2);
    const std::vector<u8> body = somePayload(100, 3);
    EXPECT_FALSE(writeFileParts("/dev/full", {head, body}));
}

TEST(ArtifactCache, MaintainSweepsAbandonedTempFiles)
{
    ScratchDir dir("tmpsweep");
    ArtifactCache cache(dir.path, true);
    ASSERT_TRUE(cache.store("keep", somePayload(100, 1)));

    // A temp file left by a killed writer never gets published.
    const std::string stale = dir.path + "/deadbeef.tmp.999.1";
    ASSERT_TRUE(writeFileBytes(stale, somePayload(50, 2)));

    // Young temp files may belong to a live writer: left alone.
    cache.maintain(/*tmp_age_seconds=*/3600);
    EXPECT_TRUE(std::filesystem::exists(stale));

    // Old enough to be garbage: swept. Entries are untouched.
    cache.maintain(/*tmp_age_seconds=*/0);
    EXPECT_FALSE(std::filesystem::exists(stale));
    EXPECT_TRUE(cache.load("keep").has_value());
}

TEST(ArtifactCache, SizeBudgetEvictsLeastRecentlyUsedFirst)
{
    namespace fs = std::filesystem;
    ScratchDir dir("evict");
    ArtifactCache unbounded(dir.path, true);
    ASSERT_TRUE(unbounded.store("old", somePayload(4000, 1)));
    ASSERT_TRUE(unbounded.store("mid", somePayload(4000, 2)));
    ASSERT_TRUE(unbounded.store("new", somePayload(4000, 3)));

    // Spread the mtimes so LRU order is unambiguous.
    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(unbounded.entryPath("old"),
                        now - std::chrono::hours(3));
    fs::last_write_time(unbounded.entryPath("mid"),
                        now - std::chrono::hours(2));
    fs::last_write_time(unbounded.entryPath("new"),
                        now - std::chrono::hours(1));

    // Opening a budgeted cache evicts oldest-first until under budget:
    // three ~4KB entries against ~9KB keeps the two most recent.
    ArtifactCache bounded(dir.path, true, /*max_bytes=*/9000);
    EXPECT_FALSE(bounded.load("old").has_value());
    EXPECT_TRUE(bounded.load("mid").has_value());
    EXPECT_TRUE(bounded.load("new").has_value());

    // Already under budget: another open evicts nothing.
    ArtifactCache again(dir.path, true, /*max_bytes=*/9000);
    EXPECT_TRUE(again.load("mid").has_value());
    EXPECT_TRUE(again.load("new").has_value());
}

TEST(ArtifactCache, LoadTouchesEntryToRefreshLruRank)
{
    namespace fs = std::filesystem;
    ScratchDir dir("touch");
    ArtifactCache cache(dir.path, true);
    ASSERT_TRUE(cache.store("entry", somePayload(100, 1)));
    fs::last_write_time(cache.entryPath("entry"),
                        fs::file_time_type::clock::now() -
                            std::chrono::hours(10));
    auto before = fs::last_write_time(cache.entryPath("entry"));
    ASSERT_TRUE(cache.load("entry").has_value());
    EXPECT_GT(fs::last_write_time(cache.entryPath("entry")), before);
}

TEST(ArtifactCache, KeyHashSpreadsAndEntryKeyIsChecked)
{
    EXPECT_NE(ArtifactCache::keyHash("a"), ArtifactCache::keyHash("b"));
    EXPECT_EQ(ArtifactCache::keyHash("a"), ArtifactCache::keyHash("a"));
    EXPECT_EQ(ArtifactCache::keyHash("a").size(), 16u);
}

TEST(ArtifactCache, KeySensitivity)
{
    BenchmarkProfile p = tinyProfile();
    codepack::CompressorConfig cfg;
    const std::string prog_key = benchProgramKey(p);
    const std::string img_key = benchImageKey(p, cfg);
    const std::string trace_key = benchTraceKey(p, 1000);

    // Seed change invalidates every artifact.
    BenchmarkProfile reseeded = p;
    reseeded.seed += 1;
    EXPECT_NE(benchProgramKey(reseeded), prog_key);
    EXPECT_NE(benchImageKey(reseeded, cfg), img_key);
    EXPECT_NE(benchTraceKey(reseeded, 1000), trace_key);

    // Any generation knob invalidates too.
    BenchmarkProfile resized = p;
    resized.numFuncs += 1;
    EXPECT_NE(benchProgramKey(resized), prog_key);

    // Compressor config changes invalidate the image, not the program.
    codepack::CompressorConfig no_raw;
    no_raw.allowRawBlocks = false;
    EXPECT_NE(benchImageKey(p, no_raw), img_key);

    // ... but the worker count must NOT (parallel output is
    // byte-identical, so cached images are shared across CPS_THREADS).
    codepack::CompressorConfig threaded;
    threaded.threads = 8;
    EXPECT_EQ(benchImageKey(p, threaded), img_key);

    // Trace cap is part of the trace key.
    EXPECT_NE(benchTraceKey(p, 2000), trace_key);

    // The artifact kind/version prefix separates the namespaces (a
    // version bump in any producer is a whole-namespace invalidation).
    EXPECT_NE(prog_key, img_key);
    EXPECT_NE(img_key, trace_key);
}

TEST(ArtifactCache, ConcurrentSameKeyWritersProduceAValidEntry)
{
    ScratchDir dir("concurrent");
    ArtifactCache cache(dir.path, true);
    const std::string key = "contended";
    constexpr unsigned kWriters = 8;

    std::vector<std::vector<u8>> payloads;
    for (unsigned i = 0; i < kWriters; ++i)
        payloads.push_back(somePayload(4096, static_cast<u8>(i)));

    std::vector<std::thread> writers;
    for (unsigned i = 0; i < kWriters; ++i)
        writers.emplace_back(
            [&, i] { cache.store(key, payloads[i]); });
    for (std::thread &t : writers)
        t.join();

    // Whatever the interleaving, the published entry is complete and
    // belongs to one of the writers.
    auto loaded = cache.load(key);
    ASSERT_TRUE(loaded.has_value());
    bool matches_one = false;
    for (const auto &p : payloads)
        matches_one = matches_one || *loaded == p;
    EXPECT_TRUE(matches_one);
    // No temp litter left behind.
    size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir.path)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(TraceIo, RoundTripAndCorruptionRejected)
{
    Program prog = generateProgram(tinyProfile());
    TraceBuffer trace = recordTrace(prog, 5000);
    ASSERT_GT(trace.size(), 0u);

    std::vector<u8> bytes = encodeTrace(trace);
    Result<TraceBuffer> back = decodeTraceChecked(bytes);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back->size(), trace.size());
    EXPECT_EQ(back->complete(), trace.complete());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(back->entry(i).pc, trace.entry(i).pc);
        EXPECT_EQ(back->entry(i).nextPc, trace.entry(i).nextPc);
        EXPECT_EQ(back->entry(i).memAddr, trace.entry(i).memAddr);
        EXPECT_EQ(back->entry(i).meta, trace.entry(i).meta);
    }
    // Re-encoding reproduces the bytes exactly (cache stability).
    EXPECT_EQ(encodeTrace(*back), bytes);

    std::vector<u8> flipped = bytes;
    flipped[flipped.size() / 3] ^= 0x01;
    Result<TraceBuffer> bad = decodeTraceChecked(flipped);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().status, DecodeStatus::BadCrc);

    std::vector<u8> truncated(bytes.begin(), bytes.begin() + 10);
    EXPECT_FALSE(decodeTraceChecked(truncated).ok());
}

TEST(ParallelCompressors, CodePackByteIdenticalAcrossThreadCounts)
{
    Program prog = generateProgram(tinyProfile());

    codepack::CompressorConfig serial_cfg;
    serial_cfg.threads = 1; // the serial reference (CPS_THREADS=1)
    codepack::CompressedImage serial =
        codepack::compress(prog, serial_cfg);
    std::vector<u8> serial_bytes = codepack::encodeImage(serial);

    for (unsigned threads : {2u, 8u}) {
        codepack::CompressorConfig cfg;
        cfg.threads = threads; // CPS_THREADS=8-style worker count
        codepack::CompressedImage parallel =
            codepack::compress(prog, cfg);
        EXPECT_EQ(codepack::encodeImage(parallel), serial_bytes)
            << "CodePack image differs at " << threads << " threads";
    }
}

TEST(ParallelCompressors, CcrpByteIdenticalAcrossThreadCounts)
{
    Program prog = generateProgram(tinyProfile());
    std::vector<u32> words;
    for (size_t i = 0; i < prog.textWords(); ++i)
        words.push_back(prog.word(i));

    compress::CcrpImage serial =
        compress::CcrpImage::compress(words, prog.text.base, 1);
    for (unsigned threads : {2u, 8u}) {
        compress::CcrpImage parallel =
            compress::CcrpImage::compress(words, prog.text.base,
                                          threads);
        ASSERT_EQ(parallel.numLines(), serial.numLines());
        EXPECT_EQ(parallel.streamBits(), serial.streamBits());
        bool lines_equal = true;
        for (u32 line = 0; line < serial.numLines(); ++line) {
            compress::LineExtent a = serial.extent(line);
            compress::LineExtent b = parallel.extent(line);
            lines_equal = lines_equal && a.byteOffset == b.byteOffset &&
                          a.byteLen == b.byteLen &&
                          serial.insnEndBytes(line) ==
                              parallel.insnEndBytes(line);
        }
        EXPECT_TRUE(lines_equal)
            << "CCRP lines differ at " << threads << " threads";
        EXPECT_EQ(parallel.decompressAll(), serial.decompressAll());
    }
}

TEST(ArtifactCache, BenchBuildColdWarmAndCorruptAreIdentical)
{
    ScratchDir dir("benchbuild");
    ArtifactCache cache(dir.path, true);
    constexpr u64 kCap = 3000;

    // Cold build computes and populates the cache.
    std::unique_ptr<BenchProgram> cold =
        buildBenchProgram("pegwit", cache, kCap);
    std::vector<u8> cold_img = codepack::encodeImage(cold->image);
    std::vector<u8> cold_prog = encodeProgram(cold->program);
    ASSERT_TRUE(cold->trace);
    std::vector<u8> cold_trace = encodeTrace(*cold->trace);
    EXPECT_TRUE(std::filesystem::exists(
        cache.entryPath(benchImageKey(*cold->profile,
                                      codepack::CompressorConfig{}))));

    // Warm build loads; every artifact must be byte-identical. The
    // entries must really hit: a load that always missed would pass the
    // comparisons below through the silent recompute.
    const std::vector<std::pair<std::string, const std::vector<u8> *>>
        cold_entries = {
            {benchProgramKey(*cold->profile), &cold_prog},
            {benchImageKey(*cold->profile, codepack::CompressorConfig{}),
             &cold_img},
            {benchTraceKey(*cold->profile, kCap), &cold_trace}};
    for (const auto &[key, cold_bytes] : cold_entries) {
        auto loaded = cache.load(key);
        ASSERT_TRUE(loaded.has_value()) << "warm miss on " << key;
        EXPECT_TRUE(*loaded == *cold_bytes) << "entry differs: " << key;
    }
    std::unique_ptr<BenchProgram> warm =
        buildBenchProgram("pegwit", cache, kCap);
    EXPECT_EQ(codepack::encodeImage(warm->image), cold_img);
    EXPECT_EQ(encodeProgram(warm->program), cold_prog);
    ASSERT_TRUE(warm->trace);
    EXPECT_EQ(encodeTrace(*warm->trace), cold_trace);

    // Corrupt every cache entry: the build silently recomputes and the
    // result still matches (fault-injection acceptance check).
    for (const auto &e : std::filesystem::directory_iterator(dir.path)) {
        auto bytes = readFileBytes(e.path().string());
        ASSERT_TRUE(bytes.has_value());
        (*bytes)[bytes->size() / 2] ^= 0x10;
        ASSERT_TRUE(writeFileBytes(e.path().string(), *bytes));
    }
    std::unique_ptr<BenchProgram> repaired =
        buildBenchProgram("pegwit", cache, kCap);
    EXPECT_EQ(codepack::encodeImage(repaired->image), cold_img);
    EXPECT_EQ(encodeProgram(repaired->program), cold_prog);
    ASSERT_TRUE(repaired->trace);
    EXPECT_EQ(encodeTrace(*repaired->trace), cold_trace);

    // A disabled cache recomputes from scratch to the same bytes.
    ArtifactCache off(dir.path, false);
    std::unique_ptr<BenchProgram> uncached =
        buildBenchProgram("pegwit", off, kCap);
    EXPECT_EQ(codepack::encodeImage(uncached->image), cold_img);
}
