#include "resilience.hh"

#include <cstring>

#include "common/logging.hh"

namespace cps
{
namespace codepack
{

namespace
{

FetchCheck
worse(FetchCheck a, FetchCheck b)
{
    return static_cast<u8>(a) >= static_cast<u8>(b) ? a : b;
}

} // namespace

SoftErrorDomain::SoftErrorDomain(CompressedImage &mem, unsigned max_retries)
    : mem_(mem), backingBytes_(mem.bytes), backingIndex_(mem.indexTable),
      maxRetries_(max_retries), verifiedEpoch_(mem.numBlocks(), 0)
{
}

void
SoftErrorDomain::corruptBacking(u32 flat, u32 bit_in_block)
{
    cps_assert(flat < mem_.numBlocks(), "corruptBacking: block %u of %u",
               flat, mem_.numBlocks());
    const BlockExtent &b = mem_.blocks[flat];
    cps_assert(bit_in_block < u64{b.byteLen} * 8,
               "corruptBacking: bit %u of a %u-byte block", bit_in_block,
               b.byteLen);
    backingBytes_[b.byteOffset + bit_in_block / 8] ^=
        static_cast<u8>(1u << (bit_in_block % 8));
}

FetchCheck
SoftErrorDomain::verifyBlock(u32 flat)
{
    if (!mem_.isProtected() || flat >= mem_.numBlocks())
        return FetchCheck::Clean;
    if (verifiedEpoch_[flat] == epoch_)
        return FetchCheck::Clean;
    // The index entry steers the decoder to the block's bytes, so its
    // integrity comes first: correcting the entry after trusting it to
    // locate (and "verify") the wrong bytes would be useless.
    FetchCheck check = verifyIndexEntry(flat / kBlocksPerGroup);
    if (check == FetchCheck::Unrecoverable)
        return check;
    check = worse(check, verifyBlockBytes(flat));
    if (check == FetchCheck::Unrecoverable)
        return check;
    verifiedEpoch_[flat] = epoch_;
    return check;
}

FetchCheck
SoftErrorDomain::verifyIndexEntry(u32 group)
{
    ++stats_.indexChecks;
    const size_t stride = indexCheckBytes(mem_.protectKind);
    const u8 *check = mem_.indexCheck.data() + size_t{group} * stride;
    u32 entry = mem_.indexTable[group];
    EccOutcome r = checkIndexEntry(mem_.protectKind, entry, check);
    if (r == EccOutcome::Clean)
        return FetchCheck::Clean;
    if (r == EccOutcome::Corrected) {
        ++stats_.corrected;
        ++stats_.correctedBits;
        mem_.indexTable[group] = entry;
        return FetchCheck::Corrected;
    }
    ++stats_.detected;
    for (unsigned t = 0; t < maxRetries_; ++t) {
        ++stats_.refetches;
        entry = backingIndex_[group];
        r = checkIndexEntry(mem_.protectKind, entry, check);
        if (r != EccOutcome::Detected) {
            mem_.indexTable[group] = entry;
            return FetchCheck::Refetched;
        }
    }
    ++stats_.unrecoverable;
    lastError_ = decodeErrorAtByte(
        DecodeStatus::SoftError, u64{group} * 4,
        "group %u: index entry uncorrectable (%s) after %u refetches",
        group, protectKindName(mem_.protectKind), maxRetries_);
    return FetchCheck::Unrecoverable;
}

FetchCheck
SoftErrorDomain::verifyBlockBytes(u32 flat)
{
    ++stats_.blockChecks;
    const BlockExtent &b = mem_.blocks[flat];
    if (b.byteLen == 0)
        return FetchCheck::Clean;
    const u8 *check = mem_.blockCheck.data() + mem_.blockCheckOff[flat];
    u8 *data = mem_.bytes.data() + b.byteOffset;
    unsigned bits = 0;
    EccOutcome r = checkBlock(mem_.protectKind, data, b.byteLen, check,
                              &bits);
    if (r == EccOutcome::Clean)
        return FetchCheck::Clean;
    if (r == EccOutcome::Corrected) {
        ++stats_.corrected;
        stats_.correctedBits += bits;
        return FetchCheck::Corrected;
    }
    ++stats_.detected;
    for (unsigned t = 0; t < maxRetries_; ++t) {
        ++stats_.refetches;
        std::memcpy(data, backingBytes_.data() + b.byteOffset, b.byteLen);
        r = checkBlock(mem_.protectKind, data, b.byteLen, check, &bits);
        if (r != EccOutcome::Detected) {
            if (r == EccOutcome::Corrected) {
                ++stats_.corrected;
                stats_.correctedBits += bits;
            }
            return FetchCheck::Refetched;
        }
    }
    ++stats_.unrecoverable;
    lastError_ = decodeErrorAtByte(
        DecodeStatus::SoftError, b.byteOffset,
        "group %u block %u: %u stream bytes uncorrectable (%s) after "
        "%u refetches",
        flat / kBlocksPerGroup, flat % kBlocksPerGroup, b.byteLen,
        protectKindName(mem_.protectKind), maxRetries_);
    return FetchCheck::Unrecoverable;
}

} // namespace codepack
} // namespace cps
