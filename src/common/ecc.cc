#include "ecc.hh"

#include <cstring>

namespace cps
{

namespace
{

/**
 * Codeword positions of the 64 data bits: the non-power-of-two values
 * of 1..71, ascending. Parity bit i lives at position 1<<i; bit i of a
 * data bit's position therefore says whether parity i covers it, so
 * the 7 recomputed parities are one XOR-fold of the positions of the
 * set data bits.
 */
constexpr std::array<u8, 64>
makeDataPositions()
{
    std::array<u8, 64> pos{};
    unsigned n = 0;
    for (unsigned p = 1; p <= 71; ++p)
        if ((p & (p - 1)) != 0)
            pos[n++] = static_cast<u8>(p);
    return pos;
}

/** position -> data-bit index, 0xFF for parity/invalid positions. */
constexpr std::array<u8, 128>
makePositionIndex()
{
    std::array<u8, 128> idx{};
    for (unsigned i = 0; i < 128; ++i)
        idx[i] = 0xFF;
    constexpr std::array<u8, 64> pos = makeDataPositions();
    for (unsigned d = 0; d < 64; ++d)
        idx[pos[d]] = static_cast<u8>(d);
    return idx;
}

constexpr std::array<u8, 64> kDataPos = makeDataPositions();
constexpr std::array<u8, 128> kPosIndex = makePositionIndex();

inline unsigned
parity64(u64 v)
{
    return static_cast<unsigned>(__builtin_parityll(v));
}

inline u64
loadWordPadded(const u8 *data, size_t len, size_t word)
{
    u64 w = 0;
    size_t at = word * 8;
    size_t n = len - at < 8 ? len - at : 8;
    std::memcpy(&w, data + at, n);
    return w;
}

inline void
storeWord(u8 *data, size_t len, size_t word, u64 w)
{
    size_t at = word * 8;
    size_t n = len - at < 8 ? len - at : 8;
    std::memcpy(data + at, &w, n);
}

} // namespace

const char *
protectKindName(ProtectKind kind)
{
    switch (kind) {
      case ProtectKind::None:
        return "off";
      case ProtectKind::Crc8:
        return "crc8";
      case ProtectKind::Crc16:
        return "crc16";
      case ProtectKind::SecDed:
        return "secded";
    }
    return "?";
}

bool
parseProtectKind(const char *name, ProtectKind &out)
{
    if (std::strcmp(name, "off") == 0 || std::strcmp(name, "0") == 0 ||
        std::strcmp(name, "none") == 0) {
        out = ProtectKind::None;
        return true;
    }
    if (std::strcmp(name, "crc8") == 0) {
        out = ProtectKind::Crc8;
        return true;
    }
    if (std::strcmp(name, "crc16") == 0) {
        out = ProtectKind::Crc16;
        return true;
    }
    if (std::strcmp(name, "secded") == 0) {
        out = ProtectKind::SecDed;
        return true;
    }
    return false;
}

u8
secDedEncode(u64 data)
{
    u8 fold = 0;
    u64 v = data;
    while (v) {
        unsigned d = static_cast<unsigned>(__builtin_ctzll(v));
        v &= v - 1;
        fold ^= kDataPos[d];
    }
    // Overall parity extends the code to double-error detection: set so
    // the 72-bit codeword (data + 7 parity + itself) has even parity.
    unsigned overall = parity64(data) ^ parity64(fold);
    return static_cast<u8>(fold | (overall << 7));
}

EccOutcome
secDedCorrect(u64 &data, u8 &check)
{
    u8 expect = secDedEncode(data);
    u8 syndrome = static_cast<u8>((expect ^ check) & 0x7F);
    // Parity of the whole received 72-bit codeword (data bits, the 7
    // received parity bits, and the received overall bit). Any single
    // flip — wherever it lands — makes this odd; any double flip keeps
    // it even. Recomputing the overall bit from received data instead
    // would fold the flipped position's popcount into the answer.
    unsigned overallErr = parity64(data) ^
                          parity64(u64{check} & 0x7F) ^ ((check >> 7) & 1);
    if (syndrome == 0 && overallErr == 0)
        return EccOutcome::Clean;
    if (overallErr == 0) {
        // Parities disagree but the overall bit balances: an even
        // number of flipped bits. Double error — detected, not
        // correctable.
        return EccOutcome::Detected;
    }
    // Odd number of errors: trust the single-error hypothesis.
    if (syndrome == 0) {
        // The overall parity bit itself flipped.
        check ^= 0x80;
        return EccOutcome::Corrected;
    }
    if ((syndrome & (syndrome - 1)) == 0) {
        // A parity (check) bit flipped; the data is intact.
        check ^= syndrome;
        return EccOutcome::Corrected;
    }
    u8 d = syndrome < 128 ? kPosIndex[syndrome] : 0xFF;
    if (d == 0xFF)
        return EccOutcome::Detected; // syndrome outside the codeword
    data ^= u64{1} << d;
    return EccOutcome::Corrected;
}

void
computeBlockCheck(ProtectKind kind, const u8 *data, size_t len, u8 *out)
{
    switch (kind) {
      case ProtectKind::None:
        return;
      case ProtectKind::Crc8:
        out[0] = crc8(data, len);
        return;
      case ProtectKind::Crc16: {
        u16 c = crc16(data, len);
        out[0] = static_cast<u8>(c);
        out[1] = static_cast<u8>(c >> 8);
        return;
      }
      case ProtectKind::SecDed: {
        size_t words = (len + 7) / 8;
        for (size_t w = 0; w < words; ++w)
            out[w] = secDedEncode(loadWordPadded(data, len, w));
        return;
      }
    }
}

EccOutcome
checkBlock(ProtectKind kind, u8 *data, size_t len, const u8 *check,
           unsigned *correctedBits)
{
    if (correctedBits)
        *correctedBits = 0;
    switch (kind) {
      case ProtectKind::None:
        return EccOutcome::Clean;
      case ProtectKind::Crc8:
        return crc8(data, len) == check[0] ? EccOutcome::Clean
                                           : EccOutcome::Detected;
      case ProtectKind::Crc16: {
        u16 c = crc16(data, len);
        bool ok = static_cast<u8>(c) == check[0] &&
                  static_cast<u8>(c >> 8) == check[1];
        return ok ? EccOutcome::Clean : EccOutcome::Detected;
      }
      case ProtectKind::SecDed: {
        size_t words = (len + 7) / 8;
        EccOutcome outcome = EccOutcome::Clean;
        for (size_t w = 0; w < words; ++w) {
            u64 word = loadWordPadded(data, len, w);
            u8 c = check[w];
            EccOutcome r = secDedCorrect(word, c);
            if (r == EccOutcome::Detected)
                return EccOutcome::Detected;
            if (r == EccOutcome::Corrected) {
                // The stored check bytes are authoritative (modeled as
                // living in protected spare bits); a "correction" that
                // rewrites them, or that lands in the zero padding of
                // the final partial word, is a multi-bit alias.
                if (c != check[w])
                    return EccOutcome::Detected;
                size_t valid = len - w * 8;
                if (valid < 8 && (word >> (valid * 8)) != 0)
                    return EccOutcome::Detected;
                storeWord(data, len, w, word);
                outcome = EccOutcome::Corrected;
                if (correctedBits)
                    ++*correctedBits;
            }
        }
        return outcome;
      }
    }
    return EccOutcome::Clean;
}

void
computeIndexCheck(ProtectKind kind, u32 entry, u8 *out)
{
    u8 bytes[4];
    for (unsigned i = 0; i < 4; ++i)
        bytes[i] = static_cast<u8>(entry >> (8 * i));
    switch (kind) {
      case ProtectKind::None:
        return;
      case ProtectKind::Crc8:
        out[0] = crc8(bytes, 4);
        return;
      case ProtectKind::Crc16: {
        u16 c = crc16(bytes, 4);
        out[0] = static_cast<u8>(c);
        out[1] = static_cast<u8>(c >> 8);
        return;
      }
      case ProtectKind::SecDed:
        out[0] = secDedEncode(entry);
        return;
    }
}

EccOutcome
checkIndexEntry(ProtectKind kind, u32 &entry, const u8 *check)
{
    switch (kind) {
      case ProtectKind::None:
        return EccOutcome::Clean;
      case ProtectKind::Crc8:
      case ProtectKind::Crc16: {
        u8 expect[2];
        computeIndexCheck(kind, entry, expect);
        size_t n = indexCheckBytes(kind);
        return std::memcmp(expect, check, n) == 0 ? EccOutcome::Clean
                                                  : EccOutcome::Detected;
      }
      case ProtectKind::SecDed: {
        u64 word = entry;
        u8 c = check[0];
        EccOutcome r = secDedCorrect(word, c);
        if (r == EccOutcome::Detected)
            return EccOutcome::Detected;
        if (r == EccOutcome::Corrected) {
            // Same authority rule as checkBlock: the check byte and the
            // zero-extension are known-good, so corrections there are
            // really multi-bit aliases.
            if (c != check[0] || (word >> 32) != 0)
                return EccOutcome::Detected;
            entry = static_cast<u32>(word);
        }
        return r;
      }
    }
    return EccOutcome::Clean;
}

} // namespace cps
