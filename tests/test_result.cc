/**
 * @file
 * Tests for the recoverable-error plumbing: Result<T>, Result<void>,
 * DecodeError formatting, and the CRC-32 used by the image format
 * (cross-checked against a bytewise reference loop).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "common/result.hh"
#include "common/rng.hh"

namespace cps
{
namespace
{

TEST(Result, OkCarriesValue)
{
    Result<int> r(42);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(*r, 42);
    EXPECT_EQ(r.valueOr(7), 42);
}

TEST(Result, ErrorCarriesDiagnosis)
{
    Result<int> r = decodeErrorAtByte(DecodeStatus::Truncated, 132,
                                      "file ends at %s", "the header");
    ASSERT_FALSE(r.ok());
    EXPECT_FALSE(static_cast<bool>(r));
    EXPECT_EQ(r.error().status, DecodeStatus::Truncated);
    EXPECT_EQ(r.error().byteOffset(), 132u);
    EXPECT_EQ(r.error().bitOffset, 132u * 8);
    EXPECT_EQ(r.error().message, "file ends at the header");
    EXPECT_EQ(r.valueOr(7), 7);
}

TEST(Result, BitGranularOffsets)
{
    DecodeError err = decodeErrorAtBit(DecodeStatus::RangeError, 43,
                                       "index out of range");
    EXPECT_EQ(err.bitOffset, 43u);
    EXPECT_EQ(err.byteOffset(), 5u); // bit 43 lives in byte 5
}

TEST(Result, DescribeNamesStatusAndOffset)
{
    DecodeError err =
        decodeErrorAtByte(DecodeStatus::BadCrc, 20, "header mismatch");
    std::string s = err.describe();
    EXPECT_NE(s.find("bad-crc"), std::string::npos) << s;
    EXPECT_NE(s.find("byte 20"), std::string::npos) << s;
    EXPECT_NE(s.find("header mismatch"), std::string::npos) << s;
}

TEST(Result, VoidSpecialization)
{
    Result<void> ok;
    EXPECT_TRUE(ok.ok());
    Result<void> bad =
        decodeErrorAtByte(DecodeStatus::Malformed, 0, "nope");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().status, DecodeStatus::Malformed);
}

TEST(Result, MovesNonCopyablePayloads)
{
    Result<std::unique_ptr<int>> r(std::make_unique<int>(9));
    ASSERT_TRUE(r.ok());
    std::unique_ptr<int> taken = std::move(r.value());
    EXPECT_EQ(*taken, 9);
}

TEST(Result, EveryStatusHasAName)
{
    for (DecodeStatus s :
         {DecodeStatus::Ok, DecodeStatus::BadMagic,
          DecodeStatus::BadVersion, DecodeStatus::Truncated,
          DecodeStatus::BadCrc, DecodeStatus::BadHeader,
          DecodeStatus::RangeError, DecodeStatus::Malformed}) {
        EXPECT_STRNE(decodeStatusName(s), "unknown");
    }
}

// ------------------------------------------------------------- crc32

/** The textbook one-byte-per-step CRC-32, kept only as a reference. */
u32
bytewiseCrc32(const u8 *data, size_t size, u32 crc = 0)
{
    crc = ~crc;
    for (size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
    return ~crc;
}

std::vector<u8>
randomBytes(size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<u8> out(n);
    for (u8 &b : out)
        b = static_cast<u8>(rng.next() >> 56);
    return out;
}

TEST(Crc32, KnownVectors)
{
    // The classic check value for CRC-32/IEEE.
    const u8 check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(crc32(check, sizeof(check)), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, ChainingMatchesOneShot)
{
    // Splits at non-multiples of 8 restart the 8-byte slices mid-stream.
    const std::vector<u8> data = randomBytes(1000, 3);
    const u32 oneshot = crc32(data);
    ASSERT_EQ(oneshot, bytewiseCrc32(data.data(), data.size()));
    for (size_t first : {1u, 3u, 7u, 9u, 100u, 501u, 999u}) {
        u32 chained = crc32(data.data(), first);
        chained = crc32(data.data() + first, data.size() - first, chained);
        EXPECT_EQ(chained, oneshot) << "split at " << first;
    }
    // Many uneven pieces in a row: 5, 11, 17, ... bytes.
    u32 chained = 0;
    size_t pos = 0;
    for (size_t piece = 5; pos < data.size(); piece += 6) {
        size_t n = std::min(piece, data.size() - pos);
        chained = crc32(data.data() + pos, n, chained);
        pos += n;
    }
    EXPECT_EQ(chained, oneshot);
}

TEST(Crc32, MatchesBytewiseReference)
{
    // Lengths 0-64 cover the 8-byte slices plus every tail length;
    // start offsets 0-7 cover every alignment of the slice loads.
    const std::vector<u8> small = randomBytes(64 + 8, 1);
    for (size_t offset = 0; offset < 8; ++offset)
        for (size_t len = 0; len <= 64; ++len)
            EXPECT_EQ(crc32(small.data() + offset, len),
                      bytewiseCrc32(small.data() + offset, len))
                << "offset " << offset << " length " << len;

    const std::vector<u8> large = randomBytes(1u << 20, 2);
    EXPECT_EQ(crc32(large), bytewiseCrc32(large.data(), large.size()));
}

TEST(Crc32, SensitiveToSingleBitFlips)
{
    std::vector<u8> data(64, 0xA5);
    u32 base = crc32(data);
    for (size_t bit = 0; bit < data.size() * 8; bit += 37) {
        std::vector<u8> mut = data;
        mut[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        EXPECT_NE(crc32(mut), base) << "bit " << bit;
    }
}

} // namespace
} // namespace cps
