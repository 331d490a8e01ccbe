/**
 * @file
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
 * checksum of compressed-image sections, artifact-cache envelopes,
 * recorded traces and IPC frames.
 *
 * Computed by slicing-by-8: eight 256-entry tables, built at compile
 * time from the classic bytewise one, fold eight input bytes per step
 * instead of one. Input is read with explicit little-endian loads, so
 * the result depends on neither alignment nor host byte order. It is the
 * same polynomial over the same bytes, so every checksum is
 * bit-identical to the bytewise loop's.
 */

#ifndef CPS_COMMON_CRC32_HH
#define CPS_COMMON_CRC32_HH

#include <array>
#include <cstddef>
#include <vector>

#include "byteio.hh"
#include "types.hh"

namespace cps
{

namespace detail
{

using Crc32Tables = std::array<std::array<u32, 256>, 8>;

/**
 * tables[0] is the bytewise table. tables[k][b] is the CRC register
 * after byte b is followed by k zero bytes, which lets one step fold a
 * byte that sits k positions before the end of an 8-byte slice.
 */
constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables tables{};
    for (u32 i = 0; i < 256; ++i) {
        u32 c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        tables[0][i] = c;
    }
    for (size_t k = 1; k < tables.size(); ++k)
        for (u32 i = 0; i < 256; ++i) {
            u32 c = tables[k - 1][i];
            tables[k][i] = (c >> 8) ^ tables[0][c & 0xFFu];
        }
    return tables;
}

inline constexpr Crc32Tables kCrc32Tables = makeCrc32Tables();

} // namespace detail

/**
 * Updates a running CRC-32 with @p size bytes. Start (and finish) a
 * fresh checksum by passing/keeping the default @p crc of 0; chain
 * calls by feeding the previous return value back in.
 */
inline u32
crc32(const u8 *data, size_t size, u32 crc = 0)
{
    const auto &t = detail::kCrc32Tables;
    crc = ~crc;
    for (; size >= 8; data += 8, size -= 8) {
        u32 lo = crc ^ loadLe32(data);
        u32 hi = loadLe32(data + 4);
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (size_t i = 0; i < size; ++i)
        crc = t[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return ~crc;
}

/** CRC-32 of a whole byte vector. */
inline u32
crc32(const std::vector<u8> &bytes)
{
    return crc32(bytes.data(), bytes.size());
}

} // namespace cps

#endif // CPS_COMMON_CRC32_HH
