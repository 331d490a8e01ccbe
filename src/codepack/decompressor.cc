#include "decompressor.hh"

#include <bit>
#include <cstring>

#include "common/bitstream.hh"
#include "common/logging.hh"

namespace cps
{
namespace codepack
{

Result<DecodedBlock>
Decompressor::tryDecompressBlock(u32 group, u32 block) const
{
    if (group >= img_.numGroups())
        return decodeErrorAtByte(DecodeStatus::RangeError, 0,
                                 "group %u block %u: group out of range "
                                 "(image has %u groups)",
                                 group, block, img_.numGroups());
    if (block >= kBlocksPerGroup)
        return decodeErrorAtByte(DecodeStatus::RangeError, 0,
                                 "group %u block %u: block out of range "
                                 "(groups hold %u blocks)",
                                 group, block, kBlocksPerGroup);

    u32 entry = img_.indexTable[group];
    DecodedBlock out;
    u32 first = idxFirstOffset(entry);
    if (block == 0) {
        out.byteOffset = first;
        out.raw = idxFirstRaw(entry);
        out.byteLen = idxSecondOffset(entry);
        // A raw first block always occupies exactly 64 bytes.
        if (out.raw)
            out.byteLen = kRawBlockBytes;
    } else {
        out.byteOffset = first + idxSecondOffset(entry);
        out.raw = idxSecondRaw(entry);
        // The second block's length is not in the index entry; the
        // hardware just decodes 16 instructions. We recover the length
        // from decoding below (raw blocks are fixed-size).
        out.byteLen = out.raw ? kRawBlockBytes : 0;
    }

    if (out.byteOffset > img_.bytes.size())
        return decodeErrorAtByte(
            DecodeStatus::RangeError, out.byteOffset,
            "group %u block %u offset %u beyond compressed region "
            "(%zu bytes)",
            group, block, out.byteOffset, img_.bytes.size());

    if (out.raw) {
        if (out.byteOffset + kRawBlockBytes > img_.bytes.size())
            return decodeErrorAtByte(
                DecodeStatus::Truncated, out.byteOffset,
                "group %u block %u raw extent [%u, %u) beyond "
                "compressed region (%zu bytes)",
                group, block, out.byteOffset,
                out.byteOffset + kRawBlockBytes, img_.bytes.size());
        const u8 *p = img_.bytes.data() + out.byteOffset;
        for (unsigned i = 0; i < kBlockInsns; ++i) {
            out.words[i] = static_cast<u32>(p[i * 4]) |
                           (static_cast<u32>(p[i * 4 + 1]) << 8) |
                           (static_cast<u32>(p[i * 4 + 2]) << 16) |
                           (static_cast<u32>(p[i * 4 + 3]) << 24);
            out.endBit[i] = (i + 1) * 32;
        }
        return out;
    }

    BitReader br(img_.bytes.data() + out.byteOffset,
                 img_.bytes.size() - out.byteOffset);
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        Result<u16> hi = img_.highDict.tryRead(br);
        if (!hi) {
            DecodeError err = hi.error();
            err.bitOffset += u64{out.byteOffset} * 8;
            err.message = strfmt("group %u block %u insn %u: %s", group,
                                 block, i, err.message.c_str());
            return err;
        }
        Result<u16> lo = img_.lowDict.tryRead(br);
        if (!lo) {
            DecodeError err = lo.error();
            err.bitOffset += u64{out.byteOffset} * 8;
            err.message = strfmt("group %u block %u insn %u: %s", group,
                                 block, i, err.message.c_str());
            return err;
        }
        out.words[i] = (static_cast<u32>(*hi) << 16) | *lo;
        out.endBit[i] = static_cast<u32>(br.bitPos());
    }
    u32 used_bytes = static_cast<u32>((br.bitPos() + 7) / 8);
    if (block == 0) {
        // Cross-check: the index entry's second-block offset doubles as
        // the first block's length. A disagreement means either the
        // entry or the stream is corrupt.
        if (out.byteLen != used_bytes)
            return decodeErrorAtByte(
                DecodeStatus::Malformed,
                u64{out.byteOffset} + used_bytes,
                "group %u block 0: index entry says first block is "
                "%u bytes but decode consumed %u",
                group, out.byteLen, used_bytes);
    } else {
        out.byteLen = used_bytes;
    }
    return out;
}

bool
Decompressor::fastDecompressBlock(u32 group, u32 block,
                                  DecodedBlock &out) const
{
    if (group >= img_.numGroups() || block >= kBlocksPerGroup)
        return false;

    u32 entry = img_.indexTable[group];
    u32 first = idxFirstOffset(entry);
    if (block == 0) {
        out.byteOffset = first;
        out.raw = idxFirstRaw(entry);
        out.byteLen = out.raw ? kRawBlockBytes : idxSecondOffset(entry);
    } else {
        out.byteOffset = first + idxSecondOffset(entry);
        out.raw = idxSecondRaw(entry);
        out.byteLen = out.raw ? kRawBlockBytes : 0;
    }
    if (out.byteOffset > img_.bytes.size())
        return false;

    if (out.raw) {
        if (out.byteOffset + kRawBlockBytes > img_.bytes.size())
            return false;
        const u8 *p = img_.bytes.data() + out.byteOffset;
        for (unsigned i = 0; i < kBlockInsns; ++i) {
            u32 w;
            std::memcpy(&w, p + i * 4, 4);
            if constexpr (std::endian::native == std::endian::big)
                w = __builtin_bswap32(w);
            out.words[i] = w;
            out.endBit[i] = (i + 1) * 32;
        }
        return true;
    }

    BitReader br(img_.bytes.data() + out.byteOffset,
                 img_.bytes.size() - out.byteOffset);
    constexpr unsigned kLut = Dictionary::kLutBits;
    const u32 *hlut = img_.highDict.lutData();
    const u32 *llut = img_.lowDict.lutData();
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        // Fused probe: one peek covers both halfword codewords (the
        // high codeword is at most kLut bits, so the low probe always
        // fits inside a 2*kLut-bit window). Raw escapes, unpopulated
        // indexes and end-of-stream truncation drop to the per-symbol
        // readFast path, which re-peeks from the same position.
        u32 bits = br.peekPadded(2 * kLut);
        u32 eh = hlut[bits >> kLut];
        if (Dictionary::lutIsValue(eh)) {
            unsigned lh = Dictionary::lutLen(eh);
            u32 el = llut[(bits >> (kLut - lh)) & ((1u << kLut) - 1)];
            if (Dictionary::lutIsValue(el)) {
                unsigned ll = Dictionary::lutLen(el);
                if (br.trySkip(lh + ll)) {
                    out.words[i] =
                        (static_cast<u32>(Dictionary::lutValue(eh))
                         << 16) |
                        Dictionary::lutValue(el);
                    out.endBit[i] = static_cast<u32>(br.bitPos());
                    continue;
                }
            }
        }
        u16 hi, lo;
        if (!img_.highDict.readFast(br, hi) ||
            !img_.lowDict.readFast(br, lo))
            return false;
        out.words[i] = (static_cast<u32>(hi) << 16) | lo;
        out.endBit[i] = static_cast<u32>(br.bitPos());
    }
    u32 used_bytes = static_cast<u32>((br.bitPos() + 7) / 8);
    if (block == 0) {
        if (out.byteLen != used_bytes)
            return false; // index/stream disagreement
    } else {
        out.byteLen = used_bytes;
    }
    return true;
}

DecodedBlock
Decompressor::decompressBlock(u32 group, u32 block) const
{
    DecodedBlock out;
    if (fastDecompressBlock(group, block, out))
        return out;
    // The fast kernel bailed: decode through the checked bit-serial
    // reference path. Trusted path: the image was produced in-process,
    // so a decode failure here is a simulator bug, not bad input —
    // panic with the checked diagnostic.
    Result<DecodedBlock> r = tryDecompressBlock(group, block);
    if (!r)
        cps_panic("decompressBlock on corrupt image: %s",
                  r.error().describe().c_str());
    return *r;
}

std::vector<u32>
Decompressor::decompressAll() const
{
    std::vector<u32> out;
    out.reserve(img_.paddedInsns);
    for (u32 g = 0; g < img_.numGroups(); ++g) {
        for (u32 b = 0; b < kBlocksPerGroup; ++b) {
            DecodedBlock blk = decompressBlock(g, b);
            out.insert(out.end(), blk.words.begin(), blk.words.end());
        }
    }
    out.resize(img_.origTextBytes / 4); // drop the NOP padding
    return out;
}

Result<std::vector<u32>>
Decompressor::tryDecompressAll() const
{
    Result<void> valid = validateImage(img_);
    if (!valid)
        return valid.error();
    std::vector<u32> out;
    out.reserve(img_.paddedInsns);
    for (u32 g = 0; g < img_.numGroups(); ++g) {
        for (u32 b = 0; b < kBlocksPerGroup; ++b) {
            Result<DecodedBlock> blk = tryDecompressBlock(g, b);
            if (!blk)
                return blk.error();
            out.insert(out.end(), blk->words.begin(), blk->words.end());
        }
    }
    out.resize(img_.origTextBytes / 4); // drop the NOP padding
    return out;
}

Result<void>
validateImage(const CompressedImage &img)
{
    if (img.paddedInsns % kGroupInsns != 0)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "paddedInsns %u is not a multiple of "
                                 "the group size %u",
                                 img.paddedInsns, kGroupInsns);
    u32 groups = img.paddedInsns / kGroupInsns;
    if (img.numGroups() != groups)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "index table has %u entries for %u "
                                 "groups",
                                 img.numGroups(), groups);
    if (!img.blocks.empty() &&
        img.blocks.size() != size_t{groups} * kBlocksPerGroup)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "%zu block extents for %u groups",
                                 img.blocks.size(), groups);
    if (img.origTextBytes % 4 != 0 ||
        img.origTextBytes > u64{img.paddedInsns} * 4)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "origTextBytes %u inconsistent with "
                                 "%u padded instructions",
                                 img.origTextBytes, img.paddedInsns);
    if (img.textBase % 4 != 0)
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "text base 0x%x is not word aligned",
                                 img.textBase);

    for (u32 g = 0; g < groups; ++g) {
        u32 entry = img.indexTable[g];
        u64 first = idxFirstOffset(entry);
        u64 second = first + idxSecondOffset(entry);
        if (first > img.bytes.size() || second > img.bytes.size())
            return decodeErrorAtByte(
                DecodeStatus::RangeError, first,
                "index entry %u points beyond the compressed region "
                "(%zu bytes)",
                g, img.bytes.size());
    }
    for (size_t i = 0; i < img.blocks.size(); ++i) {
        const BlockExtent &b = img.blocks[i];
        if (u64{b.byteOffset} + b.byteLen > img.bytes.size())
            return decodeErrorAtByte(
                DecodeStatus::RangeError, b.byteOffset,
                "block extent %zu [%u, %u) beyond the compressed "
                "region (%zu bytes)",
                i, b.byteOffset, b.byteOffset + b.byteLen,
                img.bytes.size());
    }

    // Protection annex consistency: every block and index entry owns
    // exactly the check bytes its kind dictates, and the offset table
    // matches the extents it was derived from.
    if (img.isProtected()) {
        std::vector<u32> off = blockCheckOffsets(img.protectKind,
                                                 img.blocks);
        if (img.blockCheckOff != off ||
            img.blockCheck.size() != off.back())
            return decodeErrorAtByte(
                DecodeStatus::BadHeader, 0,
                "%s block-check array (%zu bytes) inconsistent with "
                "the block extents (%u expected)",
                protectKindName(img.protectKind), img.blockCheck.size(),
                off.back());
        if (img.indexCheck.size() !=
            img.indexTable.size() * indexCheckBytes(img.protectKind))
            return decodeErrorAtByte(
                DecodeStatus::BadHeader, 0,
                "%s index-check array (%zu bytes) inconsistent with "
                "%u index entries",
                protectKindName(img.protectKind), img.indexCheck.size(),
                img.numGroups());
    } else if (!img.blockCheck.empty() || !img.indexCheck.empty()) {
        return decodeErrorAtByte(DecodeStatus::BadHeader, 0,
                                 "check arrays present on an "
                                 "unprotected image");
    }
    return {};
}

} // namespace codepack
} // namespace cps
