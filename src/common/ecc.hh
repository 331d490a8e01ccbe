/**
 * @file
 * Soft-error protection codes for compressed code resident in memory:
 * SEC-DED Hamming(72,64) over 64-bit words (single-error correct,
 * double-error detect — the DRAM-style code) plus cheaper detect-only
 * CRC-8 (SMBus polynomial 0x07) and CRC-16 (CCITT 0x1021) per-block
 * checks. Table-driven like crc32.hh; no dependency beyond types.hh
 * and the logging helpers.
 *
 * The codeword layout is the classic extended Hamming code: 64 data
 * bits occupy the non-power-of-two positions of 1..71, parity bits sit
 * at positions 1,2,4,...,64, and an overall-parity bit extends single
 * correction to double detection. One check byte therefore protects
 * one 64-bit word, an 8/64 = 12.5% storage overhead on protected
 * payloads (charged into the compression ratio by protectImage).
 */

#ifndef CPS_COMMON_ECC_HH
#define CPS_COMMON_ECC_HH

#include <array>
#include <cstddef>

#include "types.hh"

namespace cps
{

/** Per-block protection scheme for compressed images in memory. */
enum class ProtectKind : u8
{
    None = 0,   ///< unprotected (the pre-resilience format, .cpi v2)
    Crc8 = 1,   ///< detect-only: 1 check byte per block
    Crc16 = 2,  ///< detect-only: 2 check bytes per block
    SecDed = 3, ///< Hamming(72,64): 1 check byte per 8 data bytes
};

constexpr unsigned kNumProtectKinds = 4;

/** Knob spelling ("off"/"crc8"/"crc16"/"secded"). */
const char *protectKindName(ProtectKind kind);

/** Parses a knob spelling; returns false on an unknown value. */
bool parseProtectKind(const char *name, ProtectKind &out);

namespace detail
{

constexpr std::array<u8, 256>
makeCrc8Table()
{
    std::array<u8, 256> table{};
    for (unsigned i = 0; i < 256; ++i) {
        u8 c = static_cast<u8>(i);
        for (int k = 0; k < 8; ++k)
            c = static_cast<u8>((c & 0x80u) ? (c << 1) ^ 0x07u
                                            : (c << 1));
        table[i] = c;
    }
    return table;
}

constexpr std::array<u16, 256>
makeCrc16Table()
{
    std::array<u16, 256> table{};
    for (unsigned i = 0; i < 256; ++i) {
        u16 c = static_cast<u16>(i << 8);
        for (int k = 0; k < 8; ++k)
            c = static_cast<u16>((c & 0x8000u) ? (c << 1) ^ 0x1021u
                                               : (c << 1));
        table[i] = c;
    }
    return table;
}

inline constexpr std::array<u8, 256> kCrc8Table = makeCrc8Table();
inline constexpr std::array<u16, 256> kCrc16Table = makeCrc16Table();

} // namespace detail

/** CRC-8 (poly 0x07, init 0) of @p size bytes. */
inline u8
crc8(const u8 *data, size_t size)
{
    u8 crc = 0;
    for (size_t i = 0; i < size; ++i)
        crc = detail::kCrc8Table[crc ^ data[i]];
    return crc;
}

/** CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) of @p size bytes. */
inline u16
crc16(const u8 *data, size_t size)
{
    u16 crc = 0xFFFF;
    for (size_t i = 0; i < size; ++i)
        crc = static_cast<u16>((crc << 8) ^
                               detail::kCrc16Table[(crc >> 8) ^ data[i]]);
    return crc;
}

/** The SEC-DED check byte for one 64-bit data word. */
u8 secDedEncode(u64 data);

/** What a SEC-DED (or CRC) check of received data concluded. */
enum class EccOutcome : u8
{
    Clean,     ///< data and check agree
    Corrected, ///< a single-bit error was corrected in place
    Detected,  ///< uncorrectable: multi-bit error or detect-only code
};

/**
 * Checks (and corrects) one received 64-bit word against its received
 * check byte. Single-bit errors — in the data or in the check byte —
 * are fixed in place; double-bit errors and invalid syndromes return
 * Detected with @p data and @p check unspecified-but-unchanged.
 */
EccOutcome secDedCorrect(u64 &data, u8 &check);

/** Check bytes a block of @p dataLen bytes needs under @p kind. */
inline size_t
blockCheckBytes(ProtectKind kind, size_t dataLen)
{
    switch (kind) {
      case ProtectKind::None:
        return 0;
      case ProtectKind::Crc8:
        return 1;
      case ProtectKind::Crc16:
        return 2;
      case ProtectKind::SecDed:
        return (dataLen + 7) / 8;
    }
    return 0;
}

/** Check bytes one u32 index-table entry needs under @p kind. */
inline size_t
indexCheckBytes(ProtectKind kind)
{
    switch (kind) {
      case ProtectKind::None:
        return 0;
      case ProtectKind::Crc8:
        return 1;
      case ProtectKind::Crc16:
        return 2;
      case ProtectKind::SecDed:
        return 1; // one code word: the entry zero-extended to 64 bits
    }
    return 0;
}

/**
 * Computes the check bytes for a data buffer into @p out (which must
 * hold blockCheckBytes(kind, len) bytes). SEC-DED treats the buffer as
 * little-endian 64-bit words, the last zero-padded.
 */
void computeBlockCheck(ProtectKind kind, const u8 *data, size_t len,
                       u8 *out);

/**
 * Verifies — and for SEC-DED, corrects in place — a data buffer
 * against its stored check bytes. Returns the strongest statement the
 * code supports: Clean, Corrected (SEC-DED only; @p correctedBits, when
 * non-null, counts the repaired bits), or Detected. A correction that
 * would touch the zero padding of the final partial word is reported
 * as Detected: the stored data cannot have flipped a bit it does not
 * have, so the syndrome is a multi-bit alias.
 */
EccOutcome checkBlock(ProtectKind kind, u8 *data, size_t len,
                      const u8 *check, unsigned *correctedBits = nullptr);

/** Computes the check bytes for one index entry into @p out. */
void computeIndexCheck(ProtectKind kind, u32 entry, u8 *out);

/** Verifies (and for SEC-DED corrects) one index entry in place. */
EccOutcome checkIndexEntry(ProtectKind kind, u32 &entry, const u8 *check);

} // namespace cps

#endif // CPS_COMMON_ECC_HH
