/**
 * @file
 * Trace container tests: the delta-coded layout is pinned, every escape
 * of the entry coding round-trips, recorded traces stay compact, and the
 * structural checks behind the CRC turn every truncation and byte
 * overwrite into either a structured error inside the container or a
 * trace that re-encodes to exactly the mutated bytes.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/byteio.hh"
#include "common/crc32.hh"
#include "core/trace.hh"
#include "progen/progen.hh"

using namespace cps;

namespace
{

TraceEntry
makeEntry(Addr pc, Addr next_pc, Addr mem, u32 index, bool taken = false,
          bool halted = false)
{
    TraceEntry e;
    e.pc = pc;
    e.nextPc = next_pc;
    e.memAddr = mem;
    e.meta = (index << 2) | (taken ? TraceEntry::kTakenBit : 0) |
             (halted ? TraceEntry::kHaltedBit : 0);
    return e;
}

/** A trace that takes every escape the entry coding has. */
TraceBuffer
escapeTrace()
{
    constexpr Addr kBase = 0x00400000;
    auto idx = [](Addr pc) { return (pc - kBase) >> 2; };
    std::vector<TraceEntry> v = {
        // The first pc is not the text base, so it is stored; the base
        // still follows from its word index.
        makeEntry(0x00400010, 0x00400014, 0x10008000, idx(0x00400010)),
        // A memory op at address 0 (stored like no address at all).
        makeEntry(0x00400014, 0x00400018, 0, idx(0x00400014)),
        // A memory op at the top word; nextPc far backward.
        makeEntry(0x00400018, 0x00000100, 0xFFFFFFFC, idx(0x00400018), true),
        // nextPc far forward, from a word index that disagrees with pc.
        makeEntry(0x00000100, 0xF0000000, 0, 7, true),
        // A pc that is not the previous nextPc.
        makeEntry(0xFFFFFFF8, 0xFFFFFFFC, 0x00000004, idx(0xFFFFFFF8)),
        // pc + 4 across the 32-bit wrap is still implied.
        makeEntry(0xFFFFFFFC, 0x00000000, 0, idx(0xFFFFFFFC)),
        // Redirects across the wrap, backward and then forward.
        makeEntry(0x00000000, 0xFFFFFFF0, 0, idx(0x00000000), true),
        makeEntry(0xFFFFFFF0, 0x00000020, 0xFFFFFFF8, idx(0xFFFFFFF0), true),
        makeEntry(0x00000020, 0x00000024, 0, (1u << 30) - 1),
        // Taken and halted on the last entry.
        makeEntry(0x00000024, 0x00400000, 0, idx(0x00000024), true, true),
    };
    return TraceBuffer(std::move(v), true);
}

/** A short trace of the calibrated cc1 program. */
TraceBuffer
recordedTrace(u64 cap)
{
    return recordTrace(generateProgram(standardProfiles()[0]), cap);
}

/**
 * Encodes @p trace and expects the decode to give it back entry for
 * entry, and re-encoding to give the same bytes.
 */
void
expectRoundTrip(const TraceBuffer &trace, const std::string &what)
{
    std::vector<u8> bytes = encodeTrace(trace);
    Result<TraceBuffer> back = decodeTraceChecked(bytes);
    ASSERT_TRUE(back.ok()) << what << ": " << back.error().describe();
    ASSERT_EQ(back->size(), trace.size()) << what;
    EXPECT_EQ(back->complete(), trace.complete()) << what;
    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceEntry &a = back->entry(i);
        const TraceEntry &b = trace.entry(i);
        EXPECT_TRUE(a.pc == b.pc && a.nextPc == b.nextPc &&
                    a.memAddr == b.memAddr && a.meta == b.meta)
            << what << ": entry " << i << " differs";
    }
    EXPECT_EQ(encodeTrace(*back), bytes) << what << ": re-encoding differs";
}

/** @p body (a container without its CRC trailer) with a fresh trailer. */
std::vector<u8>
sealed(std::vector<u8> body)
{
    put32(body, crc32(body.data(), body.size()));
    return body;
}

/**
 * A sealed container with the given header fields and entry bytes
 * (text base 0x1000 unless given).
 */
std::vector<u8>
container(u32 count, std::initializer_list<u8> entries, u32 base = 0x1000,
          u8 complete = 0)
{
    std::vector<u8> out = {'C', 'P', 'S', 'T', 'R', 'C', '2', '\0'};
    put32(out, count);
    put8(out, complete);
    put32(out, base);
    out.insert(out.end(), entries.begin(), entries.end());
    return sealed(out);
}

/** What the mutation campaign saw, by outcome. */
struct MutationTally
{
    std::set<DecodeStatus> seen; ///< Ok for mutants that decoded
    size_t mutants = 0;
    size_t bad = 0;
    std::string firstBad;

    /**
     * Decodes @p bytes, whose CRC is intact, and checks it is one of the
     * two outcomes the container allows.
     */
    void
    check(const std::vector<u8> &bytes, const std::string &what)
    {
        ++mutants;
        Result<TraceBuffer> r = decodeTraceChecked(bytes);
        std::string why;
        if (r) {
            seen.insert(DecodeStatus::Ok);
            if (encodeTrace(*r) != bytes)
                why = "decodes but re-encodes to other bytes";
        } else {
            seen.insert(r.error().status);
            if (r.error().status == DecodeStatus::BadCrc)
                why = "resealed container failed its CRC";
            else if (r.error().byteOffset() >= bytes.size())
                why = "error offset outside the container: " +
                      r.error().describe();
        }
        if (!why.empty() && bad++ == 0)
            firstBad = what + ": " + why;
    }
};

/**
 * Truncates @p trace's container at every length and overwrites each
 * byte before its trailer with 0x00, 0xFF and itself with bit 7 flipped,
 * resealing the CRC each time.
 */
void
mutateEveryByte(const TraceBuffer &trace, MutationTally &tally)
{
    const std::vector<u8> sealed_bytes = encodeTrace(trace);
    const std::vector<u8> body(sealed_bytes.begin(), sealed_bytes.end() - 4);
    for (size_t len = 0; len < body.size(); ++len)
        tally.check(sealed(std::vector<u8>(body.begin(),
                                           body.begin() +
                                               static_cast<long>(len))),
                    "truncated to " + std::to_string(len));
    for (size_t i = 0; i < body.size(); ++i) {
        for (u8 v : {u8{0x00}, u8{0xFF}, static_cast<u8>(body[i] ^ 0x80)}) {
            std::vector<u8> m = body;
            m[i] = v;
            tally.check(sealed(std::move(m)),
                        "byte " + std::to_string(i) + " = " +
                            std::to_string(v));
        }
    }
}

} // namespace

TEST(TraceIo, RoundTripAndCorruptionRejected)
{
    TraceBuffer trace = recordedTrace(5000);
    ASSERT_GT(trace.size(), 0u);
    expectRoundTrip(trace, "cc1");

    std::vector<u8> bytes = encodeTrace(trace);
    std::vector<u8> flipped = bytes;
    flipped[flipped.size() / 3] ^= 0x01;
    Result<TraceBuffer> bad = decodeTraceChecked(flipped);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().status, DecodeStatus::BadCrc);

    std::vector<u8> truncated(bytes.begin(), bytes.begin() + 10);
    EXPECT_FALSE(decodeTraceChecked(truncated).ok());
}

TEST(TraceIo, ContainerLayoutIsPinned)
{
    // Text base 0x1000: a straight-line entry, a taken backward branch
    // with a load, then a halting entry that stores its pc, a -4 memory
    // delta and a word index the pc does not imply.
    TraceBuffer trace({makeEntry(0x1000, 0x1004, 0, 0),
                       makeEntry(0x1004, 0x0FF8, 0x2000, 1, true),
                       makeEntry(0x2000, 0x2004, 0x1FFC, 5, false, true)},
                      true);
    std::vector<u8> want = {
        'C', 'P', 'S', 'T', 'R', 'C', '2', '\0',
        3, 0, 0, 0,          // count
        1,                   // complete
        0x00, 0x10, 0, 0,    // text base
        0x00,                // entry 0: everything implied
        0x19, 0x1F,          // entry 1: taken, nextPc delta -16
        0x80, 0x80, 0x01,    //   memory address +0x2000
        0x36,                // entry 2: halted, pc, memory, index follow
        0x00, 0x20, 0, 0,    //   pc
        0x07,                //   memory address -4
        5, 0, 0, 0,          //   word index
    };
    want = sealed(want);
    EXPECT_EQ(encodeTrace(trace), want);
    expectRoundTrip(trace, "pinned");
}

TEST(TraceIo, EveryEscapeRoundTrips)
{
    expectRoundTrip(TraceBuffer(), "empty");
    expectRoundTrip(TraceBuffer({}, true), "empty complete");
    expectRoundTrip(TraceBuffer({makeEntry(0x00400000, 0x00400004, 0, 0)},
                                false),
                    "one entry");
    // A first word index above pc / 4 puts the text base across the
    // wrap.
    expectRoundTrip(TraceBuffer({makeEntry(0x100, 0x104, 0, 0x1000, true,
                                           true)},
                                true),
                    "one entry, wrapped base");
    expectRoundTrip(escapeTrace(), "escapes");
}

TEST(TraceIo, EveryNonCanonicalOrMalformedFormIsRejected)
{
    // Header: magic 0-7, count 8-11, complete 12, text base 13-16;
    // entries start at byte 17. Tags: 0x04 pc, 0x08 nextPc delta, 0x10
    // memory delta, 0x20 word index follow.
    struct Case
    {
        const char *what;
        std::vector<u8> bytes;
        DecodeStatus status;
        u64 byteOffset;
    };
    std::vector<u8> short_header = {'C', 'P', 'S', 'T', 'R', 'C', '2',
                                    '\0', 1, 0, 0};
    std::vector<u8> old_magic = container(0, {}, 0);
    old_magic[6] = '1';
    const Case cases[] = {
        {"old container magic", sealed({old_magic.begin(),
                                        old_magic.end() - 4}),
         DecodeStatus::BadMagic, 0},
        {"header cut short", sealed(short_header), DecodeStatus::Truncated,
         8},
        {"completeness flag 2", container(0, {}, 0, 2),
         DecodeStatus::BadHeader, 12},
        {"count beyond the bytes present", container(5, {0x00, 0x00}),
         DecodeStatus::Truncated, 17},
        {"ends before the declared count",
         container(2, {0x04, 0x00, 0x20, 0x00, 0x00}),
         DecodeStatus::Truncated, 22},
        {"unknown tag bit", container(1, {0x40}), DecodeStatus::Malformed,
         17},
        {"stored pc equals the implied one",
         container(1, {0x04, 0x00, 0x10, 0x00, 0x00}),
         DecodeStatus::Malformed, 18},
        {"pc cut short", container(1, {0x04, 0x00, 0x20}),
         DecodeStatus::Truncated, 18},
        {"zero nextPc delta", container(1, {0x08, 0x00}),
         DecodeStatus::Malformed, 18},
        {"varint cut short", container(1, {0x08, 0x80}),
         DecodeStatus::Truncated, 18},
        {"varint with a zero last byte", container(1, {0x08, 0x82, 0x00}),
         DecodeStatus::Malformed, 18},
        {"varint above 32 bits",
         container(1, {0x08, 0x80, 0x80, 0x80, 0x80, 0x10}),
         DecodeStatus::Malformed, 18},
        {"six-byte varint",
         container(1, {0x08, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}),
         DecodeStatus::Malformed, 18},
        {"memory delta back to address 0",
         container(2, {0x10, 0x08, 0x10, 0x07}), DecodeStatus::Malformed,
         20},
        {"stored word index equals the implied one",
         container(1, {0x20, 0x00, 0x00, 0x00, 0x00}),
         DecodeStatus::Malformed, 18},
        {"word index above 30 bits",
         container(1, {0x20, 0x00, 0x00, 0x00, 0x40}),
         DecodeStatus::Malformed, 18},
        {"word index cut short", container(1, {0x20, 0x05}),
         DecodeStatus::Truncated, 18},
        {"byte after the last entry", container(1, {0x00, 0x00}),
         DecodeStatus::Malformed, 18},
        {"text base the first entry does not give",
         container(1, {0x24, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00},
                   0x2000),
         DecodeStatus::BadHeader, 13},
        {"nonzero text base of an empty trace", container(0, {}),
         DecodeStatus::BadHeader, 13},
    };
    for (const Case &c : cases) {
        Result<TraceBuffer> r = decodeTraceChecked(c.bytes);
        ASSERT_FALSE(r.ok()) << c.what;
        EXPECT_EQ(r.error().status, c.status)
            << c.what << ": " << r.error().describe();
        EXPECT_EQ(r.error().byteOffset(), c.byteOffset)
            << c.what << ": " << r.error().describe();
    }
    // The same layouts, made canonical, decode.
    EXPECT_TRUE(decodeTraceChecked(container(0, {}, 0)).ok());
    EXPECT_TRUE(decodeTraceChecked(container(1, {0x08, 0x01})).ok());
    EXPECT_TRUE(decodeTraceChecked(container(2, {0x10, 0x08, 0x10, 0x05}))
                    .ok());
}

TEST(TraceIo, CalibratedProfilesStayCompact)
{
    constexpr u64 kCap = 24096;
    for (const BenchmarkProfile &p : standardProfiles()) {
        TraceBuffer trace = recordTrace(generateProgram(p), kCap);
        ASSERT_EQ(trace.size(), kCap) << p.name;
        expectRoundTrip(trace, p.name);
        const double per_entry =
            static_cast<double>(encodeTrace(trace).size()) /
            static_cast<double>(trace.size());
        EXPECT_LE(per_entry, 2.5) << p.name;
    }
}

TEST(TraceIo, StructuralChecksRejectEveryMutation)
{
    MutationTally tally;
    mutateEveryByte(recordedTrace(600), tally);
    mutateEveryByte(escapeTrace(), tally);
    EXPECT_EQ(tally.bad, 0u) << tally.bad << " of " << tally.mutants
                             << " mutants; first: " << tally.firstBad;
    // Each structural check was reached, not just the CRC.
    for (DecodeStatus s :
         {DecodeStatus::Ok, DecodeStatus::BadMagic, DecodeStatus::BadHeader,
          DecodeStatus::Truncated, DecodeStatus::Malformed})
        EXPECT_TRUE(tally.seen.count(s)) << decodeStatusName(s);
}
