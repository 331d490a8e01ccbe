/**
 * @file
 * TraceBuffer (de)serialization for the artifact cache: pregeneration
 * records each benchmark's functional trace once, and warm runs load it
 * from disk instead of re-executing up to CPS_TRACE_INSNS instructions.
 */

#include "trace.hh"

#include <cstring>

#include "common/byteio.hh"
#include "common/crc32.hh"

namespace cps
{

namespace
{

constexpr char kTraceMagic[8] = {'C', 'P', 'S', 'T', 'R', 'C', '1', '\0'};

/** Bytes before the first entry: magic, u32 count, u8 complete flag. */
constexpr size_t kHeaderBytes = sizeof(kTraceMagic) + 5;

/** Bytes of one serialized entry (pc, nextPc, memAddr, meta). */
constexpr size_t kEntryBytes = 16;

} // namespace

std::vector<u8>
encodeTrace(const TraceBuffer &trace)
{
    // Sized once; each entry's four words are stored in place.
    std::vector<u8> out(kHeaderBytes + trace.size() * kEntryBytes + 4);
    std::memcpy(out.data(), kTraceMagic, sizeof(kTraceMagic));
    storeLe32(&out[sizeof(kTraceMagic)], static_cast<u32>(trace.size()));
    out[sizeof(kTraceMagic) + 4] = trace.complete() ? 1 : 0;
    u8 *p = out.data() + kHeaderBytes;
    for (size_t i = 0; i < trace.size(); ++i, p += kEntryBytes) {
        const TraceEntry &e = trace.entry(i);
        storeLe32(p, e.pc);
        storeLe32(p + 4, e.nextPc);
        storeLe32(p + 8, e.memAddr);
        storeLe32(p + 12, e.meta);
    }
    storeLe32(p, crc32(out.data(), out.size() - 4));
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
    size_t at = cur.pos();
    u32 count = cur.get32();
    u8 complete = cur.get8();
    if (!cur.ok())
        return decodeErrorAtByte(DecodeStatus::Truncated, at,
                                 "file ends inside the trace header");
    if (complete > 1)
        return decodeErrorAtByte(DecodeStatus::BadHeader, at + 4,
                                 "trace completeness flag is %u",
                                 complete);
    // Validate the declared size against the bytes actually present
    // before allocating anything (+4 for the trailing CRC).
    if (cur.remaining() != size_t{count} * kEntryBytes + 4)
        return decodeErrorAtByte(
            DecodeStatus::Truncated, cur.pos(),
            "trace declares %u entries (%zu bytes) but %zu remain",
            count, size_t{count} * kEntryBytes, cur.remaining());

    // The bounds are proven for every entry, so they decode without
    // per-byte checks.
    std::vector<TraceEntry> entries(count);
    const u8 *p = bytes.data() + cur.pos();
    for (TraceEntry &e : entries) {
        e.pc = loadLe32(p);
        e.nextPc = loadLe32(p + 4);
        e.memAddr = loadLe32(p + 8);
        e.meta = loadLe32(p + 12);
        p += kEntryBytes;
    }
    return TraceBuffer(std::move(entries), complete != 0);
}

} // namespace cps
