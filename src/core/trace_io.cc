/**
 * @file
 * TraceBuffer (de)serialization for the artifact cache: pregeneration
 * records each benchmark's functional trace once, up to
 * Suite::traceInsns() entries, and warm runs load it from disk instead
 * of executing the program again to record it.
 *
 * Container layout (little-endian):
 *
 *   magic "CPSTRC2\0"   8 bytes
 *   count               u32, entries that follow
 *   complete            u8, 0 or 1
 *   text base           u32, first entry's pc - 4 * its word index
 *                       (0 when the trace is empty)
 *   entries             one tag byte each, then the fields it names
 *   CRC-32              u32, over every byte before it
 *
 * Each entry is coded against the state the previous one left: the pc
 * it implies (its nextPc; the text base before the first entry) and the
 * last nonzero memory address (0 at first). The tag keeps the taken and
 * halted bits where TraceEntry::meta keeps them, plus one bit per field
 * that is not implied:
 *
 *   kPcFollows      raw u32 pc           implied: the previous nextPc
 *   kTargetFollows  varint zigzag(nextPc - (pc + 4))   implied: pc + 4
 *   kMemFollows     varint zigzag(memAddr - last nonzero memAddr)
 *                                        implied: memAddr 0
 *
 * The word index is always (pc - text base) >> 2. Varints are LEB128 of
 * at most five bytes. Recorded traces take 1.5-1.8 bytes per entry
 * against 8 in memory.
 *
 * A trace is a walk through its text (see TraceBuffer), so only the
 * first entry may store its pc, and every stored nextPc but the last
 * lies a whole number of words past its pc. Tag bit 5 (kIndexFollows, a
 * stored word index) and a pc stored after the first entry are
 * malformed: memory cannot hold either, and no recorder writes them.
 *
 * The decoder accepts exactly what the encoder writes: a field stored
 * when it was implied, an overlong varint, a header base other than the
 * one the first entry gives, unknown tag bits and trailing bytes are all
 * rejected. So any container that decodes re-encodes to its own bytes.
 */

#include "trace.hh"

#include <cstring>

#include "common/byteio.hh"
#include "common/crc32.hh"

namespace cps
{

namespace
{

constexpr char kTraceMagic[8] = {'C', 'P', 'S', 'T', 'R', 'C', '2', '\0'};

/** Bytes before the first entry: magic, count, complete flag, text base. */
constexpr size_t kHeaderBytes = sizeof(kTraceMagic) + 9;

/** Tag bits shared with TraceEntry::meta. */
constexpr u8 kFlagBits = TraceEntry::kTakenBit | TraceEntry::kHaltedBit;
constexpr u8 kPcFollows = 1u << 2;
constexpr u8 kTargetFollows = 1u << 3;
constexpr u8 kMemFollows = 1u << 4;
constexpr u8 kIndexFollows = 1u << 5;
constexpr u8 kKnownTagBits =
    kFlagBits | kPcFollows | kTargetFollows | kMemFollows | kIndexFollows;

/** Maps a wrapping 32-bit delta to one whose small magnitudes are small. */
u32
zigzag(u32 delta)
{
    return (delta << 1) ^ (0u - (delta >> 31));
}

u32
unzigzag(u32 z)
{
    return (z >> 1) ^ (0u - (z & 1));
}

void
putVarint(std::vector<u8> &out, u32 v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<u8>(v | 0x80));
    out.push_back(static_cast<u8>(v));
}

enum class VarintRead
{
    Ok,
    Truncated,
    Overlong,
};

/**
 * Reads the varint at @p p into @p v and advances @p p past it. Rejects
 * one that runs past @p end, one with bits above the 32nd (or a sixth
 * byte), and one whose last byte is a zero after the first: the same
 * value without it is shorter.
 */
VarintRead
readVarint(const u8 *&p, const u8 *end, u32 &v)
{
    u32 value = 0;
    for (unsigned shift = 0;; shift += 7) {
        if (p == end)
            return VarintRead::Truncated;
        const u8 b = *p++;
        if (shift == 28 && b > 0x0F)
            return VarintRead::Overlong;
        value |= static_cast<u32>(b & 0x7F) << shift;
        if (b < 0x80) {
            if (b == 0 && shift != 0)
                return VarintRead::Overlong;
            v = value;
            return VarintRead::Ok;
        }
    }
}

/** The error for a varint field readVarint refused. */
DecodeError
varintError(VarintRead r, size_t at, u32 entry, const char *field)
{
    if (r == VarintRead::Truncated)
        return decodeErrorAtByte(DecodeStatus::Truncated, at,
                                 "trace ends inside entry %u's %s", entry,
                                 field);
    return decodeErrorAtByte(DecodeStatus::Malformed, at,
                             "entry %u has an overlong %s", entry, field);
}

} // namespace

std::vector<u8>
encodeTrace(const TraceBuffer &trace)
{
    const size_t count = trace.size();
    const Addr base = trace.textBase();

    std::vector<u8> out(kHeaderBytes);
    // Recorded traces need under two bytes per entry; one regrow covers
    // anything denser.
    out.reserve(kHeaderBytes + 2 * count + 4);
    std::memcpy(out.data(), kTraceMagic, sizeof(kTraceMagic));
    storeLe32(&out[sizeof(kTraceMagic)], static_cast<u32>(count));
    out[sizeof(kTraceMagic) + 4] = trace.complete() ? 1 : 0;
    storeLe32(&out[sizeof(kTraceMagic) + 5], base);

    Addr implied_pc = base;
    Addr last_mem = 0;
    for (size_t i = 0; i < count; ++i) {
        const TraceEntry e = trace.entry(i);
        u8 tag = static_cast<u8>(e.meta & kFlagBits);
        // Only the first entry's pc can differ from the implied one.
        if (e.pc != implied_pc)
            tag |= kPcFollows;
        if (e.nextPc != e.pc + 4)
            tag |= kTargetFollows;
        if (e.memAddr != 0)
            tag |= kMemFollows;

        out.push_back(tag);
        if (tag & kPcFollows)
            put32(out, e.pc);
        if (tag & kTargetFollows)
            putVarint(out, zigzag(e.nextPc - (e.pc + 4)));
        if (tag & kMemFollows) {
            putVarint(out, zigzag(e.memAddr - last_mem));
            last_mem = e.memAddr;
        }
        implied_pc = e.nextPc;
    }
    put32(out, crc32(out.data(), out.size()));
    return out;
}

Result<TraceBuffer>
decodeTraceChecked(const std::vector<u8> &bytes)
{
    if (bytes.size() < 4 ||
        crc32(bytes.data(), bytes.size() - 4) !=
            loadLe32(&bytes[bytes.size() - 4]))
        return decodeErrorAtByte(DecodeStatus::BadCrc, 0,
                                 "trace CRC mismatch");

    ByteCursor cur(bytes);
    if (!cur.expectMagic(kTraceMagic, sizeof(kTraceMagic)))
        return decodeErrorAtByte(DecodeStatus::BadMagic, 0,
                                 "not a recorded trace (bad magic)");
    const size_t at = cur.pos();
    const u32 count = cur.get32();
    const u8 complete = cur.get8();
    const Addr base = cur.get32();
    // The CRC trailer is not part of the header.
    if (!cur.ok() || cur.remaining() < 4)
        return decodeErrorAtByte(DecodeStatus::Truncated, at,
                                 "file ends inside the trace header");
    if (complete > 1)
        return decodeErrorAtByte(DecodeStatus::BadHeader, at + 4,
                                 "trace completeness flag is %u",
                                 complete);

    const u8 *const start = bytes.data();
    const u8 *p = start + cur.pos();
    const u8 *const end = start + bytes.size() - 4;
    // Every entry takes at least its tag byte: check the declared count
    // against the bytes present before allocating anything.
    if (count > static_cast<size_t>(end - p))
        return decodeErrorAtByte(
            DecodeStatus::Truncated, cur.pos(),
            "trace declares %u entries but only %zu bytes follow", count,
            static_cast<size_t>(end - p));

    TraceBuffer trace;
    trace.entries_.reserve(count);
    trace.base_ = base;
    trace.complete_ = complete != 0;
    Addr implied_pc = base;
    Addr first_pc = base;
    Addr last_mem = 0;
    for (u32 i = 0; i < count; ++i) {
        if (p == end)
            return decodeErrorAtByte(DecodeStatus::Truncated, p - start,
                                     "trace ends after %u of %u entries",
                                     i, count);
        const u8 tag = *p;
        if (tag & ~kKnownTagBits)
            return decodeErrorAtByte(DecodeStatus::Malformed, p - start,
                                     "entry %u has unknown tag bits 0x%02x",
                                     i, tag & ~kKnownTagBits);
        if (tag & kIndexFollows)
            return decodeErrorAtByte(DecodeStatus::Malformed, p - start,
                                     "entry %u stores a word index", i);
        if ((tag & kPcFollows) && i > 0)
            return decodeErrorAtByte(DecodeStatus::Malformed, p - start,
                                     "entry %u stores a pc; only the "
                                     "first may",
                                     i);
        ++p;

        Addr pc = implied_pc;
        if (tag & kPcFollows) {
            if (end - p < 4)
                return decodeErrorAtByte(DecodeStatus::Truncated,
                                         p - start,
                                         "trace ends inside entry %u's pc",
                                         i);
            pc = loadLe32(p);
            if (pc == implied_pc)
                return decodeErrorAtByte(
                    DecodeStatus::Malformed, p - start,
                    "entry %u stores the pc it implies", i);
            first_pc = pc;
            p += 4;
        }

        Addr next_pc = pc + 4;
        if (tag & kTargetFollows) {
            const size_t field = p - start;
            u32 z = 0;
            if (VarintRead r = readVarint(p, end, z); r != VarintRead::Ok)
                return varintError(r, field, i, "nextPc delta");
            if (z == 0)
                return decodeErrorAtByte(
                    DecodeStatus::Malformed, field,
                    "entry %u stores the nextPc it implies", i);
            // The walk's one check: the next entry's pc is a word.
            if (i + 1 < count && (unzigzag(z) & 3) != 0)
                return decodeErrorAtByte(
                    DecodeStatus::Malformed, field,
                    "entry %u's nextPc is not a word of the walk", i);
            next_pc += unzigzag(z);
        }

        Addr mem = 0;
        if (tag & kMemFollows) {
            const size_t field = p - start;
            u32 z = 0;
            if (VarintRead r = readVarint(p, end, z); r != VarintRead::Ok)
                return varintError(r, field, i, "memory address delta");
            mem = last_mem + unzigzag(z);
            if (mem == 0)
                return decodeErrorAtByte(
                    DecodeStatus::Malformed, field,
                    "entry %u stores the memory address it implies", i);
            last_mem = mem;
        }

        // (pc - base) is 4 x the word index; a first pc off the word
        // grid fails the header check below.
        trace.entries_.push_back(TraceBuffer::Packed{
            ((pc - base) & ~3u) | (tag & kFlagBits), mem});
        implied_pc = next_pc;
    }
    if (p != end)
        return decodeErrorAtByte(DecodeStatus::Malformed, p - start,
                                 "%zu bytes follow the last trace entry",
                                 static_cast<size_t>(end - p));

    // The header's base is the one the first entry gives (0 when there
    // is none): the first pc lies a whole number of words past it.
    if (count == 0 ? base != 0 : ((first_pc - base) & 3) != 0)
        return decodeErrorAtByte(DecodeStatus::BadHeader, at + 5,
                                 "trace text base 0x%08x is not the one "
                                 "its first entry gives",
                                 base);
    trace.lastNextPc_ = implied_pc;
    return trace;
}

} // namespace cps
