/**
 * @file
 * Main-memory tests: functional sparse store and bus timing (the paper's
 * 10-cycle latency / 2-cycle rate / configurable width model).
 */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"

namespace cps
{
namespace
{

TEST(MemoryFunctional, UninitializedReadsZero)
{
    MainMemory mem;
    EXPECT_EQ(mem.read8(0x1000), 0u);
    EXPECT_EQ(mem.read32(0xdead0000), 0u);
}

TEST(MemoryFunctional, ByteHalfWordRoundTrip)
{
    MainMemory mem;
    mem.write8(0x100, 0xab);
    EXPECT_EQ(mem.read8(0x100), 0xabu);
    mem.write16(0x200, 0xbeef);
    EXPECT_EQ(mem.read16(0x200), 0xbeefu);
    mem.write32(0x300, 0xdeadbeef);
    EXPECT_EQ(mem.read32(0x300), 0xdeadbeefu);
}

TEST(MemoryFunctional, LittleEndianLayout)
{
    MainMemory mem;
    mem.write32(0x400, 0x11223344);
    EXPECT_EQ(mem.read8(0x400), 0x44u);
    EXPECT_EQ(mem.read8(0x401), 0x33u);
    EXPECT_EQ(mem.read8(0x402), 0x22u);
    EXPECT_EQ(mem.read8(0x403), 0x11u);
}

TEST(MemoryFunctional, CrossPageAccess)
{
    MainMemory mem;
    mem.write32(0xfff, 0xcafebabe); // straddles a 4KB page boundary
    EXPECT_EQ(mem.read32(0xfff), 0xcafebabeu);
}

TEST(MemoryFunctional, LoadSegment)
{
    MainMemory mem;
    Segment seg;
    seg.base = 0x10000;
    seg.bytes = {1, 2, 3, 4};
    mem.loadSegment(seg);
    EXPECT_EQ(mem.read32(0x10000), 0x04030201u);
}

TEST(MemoryFunctional, LoadSegmentSpanningPagesIsExact)
{
    // Starts 3 bytes before a page boundary and ends 4 bytes past one:
    // five 4KB pages, three of them whole.
    MainMemory mem;
    Segment seg;
    seg.base = 0x20ffd;
    seg.bytes.resize(3 * 4096 + 7);
    for (size_t i = 0; i < seg.bytes.size(); ++i)
        seg.bytes[i] = static_cast<u8>(i * 131 + 7);
    mem.loadSegment(seg);
    for (size_t i = 0; i < seg.bytes.size(); ++i) {
        ASSERT_EQ(mem.read8(seg.base + static_cast<Addr>(i)), seg.bytes[i])
            << "byte " << i;
    }
    EXPECT_EQ(mem.read8(seg.base - 1), 0u);
    EXPECT_EQ(mem.read8(seg.end()), 0u);

    // loadBytes takes the same path; overlapping it leaves the rest.
    mem.loadBytes(0x21fff, {0xaa, 0xbb});
    EXPECT_EQ(mem.read8(0x21ffe), seg.bytes[0x21ffe - seg.base]);
    EXPECT_EQ(mem.read8(0x21fff), 0xaau);
    EXPECT_EQ(mem.read8(0x22000), 0xbbu);
    EXPECT_EQ(mem.read8(0x22001), seg.bytes[0x22001 - seg.base]);
}

// ---------------------------------------------------------------- timing

TEST(MemoryTiming, PaperBaselineSingleBeat)
{
    MainMemory mem; // 64-bit bus, 10-cycle first access, 2-cycle rate
    BurstResult r = mem.burstRead(0, 4);
    ASSERT_EQ(r.beatArrival.size(), 1u);
    EXPECT_EQ(r.beatArrival[0], 10u);
    EXPECT_EQ(r.done, 10u);
}

TEST(MemoryTiming, PaperBaselineLineFill)
{
    // The paper's Figure 2-a: a 32-byte line on a 64-bit bus takes four
    // accesses arriving at t=10, 12, 14, 16.
    MainMemory mem;
    BurstResult r = mem.burstRead(0, 32);
    ASSERT_EQ(r.beatArrival.size(), 4u);
    EXPECT_EQ(r.beatArrival[0], 10u);
    EXPECT_EQ(r.beatArrival[1], 12u);
    EXPECT_EQ(r.beatArrival[2], 14u);
    EXPECT_EQ(r.beatArrival[3], 16u);
}

TEST(MemoryTiming, NarrowBusNeedsMoreBeats)
{
    MemTimingConfig cfg;
    cfg.busWidthBits = 16;
    MainMemory mem(cfg);
    BurstResult r = mem.burstRead(0, 32);
    EXPECT_EQ(r.beatArrival.size(), 16u);
    EXPECT_EQ(r.done, 10u + 15 * 2);
}

TEST(MemoryTiming, WideBusSingleBeatLine)
{
    MemTimingConfig cfg;
    cfg.busWidthBits = 128;
    MainMemory mem(cfg);
    BurstResult r = mem.burstRead(0, 32);
    EXPECT_EQ(r.beatArrival.size(), 2u);
    EXPECT_EQ(r.done, 12u);
}

TEST(MemoryTiming, ChannelSerializesTransactions)
{
    MainMemory mem;
    BurstResult a = mem.burstRead(0, 32);
    EXPECT_EQ(a.start, 0u);
    // A request arriving while the channel is busy waits.
    BurstResult b = mem.burstRead(5, 8);
    EXPECT_EQ(b.start, a.done);
    EXPECT_EQ(b.beatArrival[0], a.done + 10);
    // A request after the channel is idle starts immediately.
    BurstResult c = mem.burstRead(b.done + 100, 8);
    EXPECT_EQ(c.start, b.done + 100);
}

TEST(MemoryTiming, ArrivalOfByteMapsToBeat)
{
    MainMemory mem;
    BurstResult r = mem.burstRead(0, 32);
    EXPECT_EQ(r.arrivalOfByte(0, 8), 10u);
    EXPECT_EQ(r.arrivalOfByte(7, 8), 10u);
    EXPECT_EQ(r.arrivalOfByte(8, 8), 12u);
    EXPECT_EQ(r.arrivalOfByte(31, 8), 16u);
}

TEST(MemoryTiming, LatencyScalingScalesFirstAccess)
{
    MemTimingConfig cfg;
    cfg.firstAccess = 40; // the paper's 4x latency point
    cfg.beatRate = 8;
    MainMemory mem(cfg);
    BurstResult r = mem.burstRead(0, 32);
    EXPECT_EQ(r.beatArrival[0], 40u);
    EXPECT_EQ(r.done, 40u + 3 * 8);
}

TEST(MemoryTiming, StatsCountBurstsAndBeats)
{
    MainMemory mem;
    mem.burstRead(0, 32);
    mem.burstRead(0, 4);
    EXPECT_EQ(mem.numBursts(), 2u);
    EXPECT_EQ(mem.numBeats(), 5u);
    mem.resetTimingState();
    EXPECT_EQ(mem.numBursts(), 0u);
    EXPECT_EQ(mem.busyUntil(), 0u);
}

TEST(MemoryTiming, WriteOccupiesChannel)
{
    MainMemory mem;
    Cycle done = mem.burstWrite(0, 16);
    EXPECT_EQ(done, 12u);
    BurstResult r = mem.burstRead(0, 8);
    EXPECT_EQ(r.start, 12u);
}

} // namespace
} // namespace cps
