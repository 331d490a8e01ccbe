/**
 * @file
 * The CodePack compressor: turns a program's text segment into a
 * compressed image (compressed byte region + index table + dictionaries)
 * and accounts for every bit the way the paper's Table 4 does.
 */

#ifndef CPS_CODEPACK_COMPRESSOR_HH
#define CPS_CODEPACK_COMPRESSOR_HH

#include <vector>

#include "asmkit/program.hh"
#include "common/ecc.hh"
#include "common/types.hh"
#include "dictionary.hh"
#include "format.hh"

namespace cps
{
namespace codepack
{

/** Compressor options. */
struct CompressorConfig
{
    /**
     * Allow storing a block uncompressed when compression would expand
     * it (the paper notes IBM's scheme does this; it is rare).
     */
    bool allowRawBlocks = true;

    /**
     * Worker threads for the two-phase parallel encode (per-chunk
     * histogram reduction, then per-block compression); 0 means
     * defaultThreadCount() (the CPS_THREADS policy). The output is
     * byte-identical at every thread count: blocks are independently
     * indexed, so only the serial stitching step orders bytes.
     */
    unsigned threads = 0;
};

/** Bit-level composition of the compressed region (paper Table 4). */
struct Composition
{
    u64 indexTableBits = 0;
    u64 dictionaryBits = 0;
    u64 compressedTagBits = 0;
    u64 dictIndexBits = 0;
    u64 rawTagBits = 0;
    u64 rawBits = 0;
    u64 padBits = 0;
    /**
     * Check bytes attached by protectImage (zero on unprotected
     * images). Derived from the check arrays rather than serialized:
     * the v2 composition section is unchanged, and the honest ratio
     * cost of protection still lands in totalBits().
     */
    u64 protectionBits = 0;

    u64
    totalBits() const
    {
        return indexTableBits + dictionaryBits + compressedTagBits +
               dictIndexBits + rawTagBits + rawBits + padBits +
               protectionBits;
    }

    u64 totalBytes() const { return totalBits() / 8; }
};

/** Location and size of one compressed block. */
struct BlockExtent
{
    u32 byteOffset = 0; ///< into the compressed region
    u32 byteLen = 0;
    bool raw = false;   ///< stored as 64 native bytes
};

/** The full compressed form of a program's text. */
struct CompressedImage
{
    Addr textBase = 0;          ///< native base address of the text
    u32 origTextBytes = 0;      ///< unpadded native text size
    u32 paddedInsns = 0;        ///< instruction count, padded to a group
    std::vector<u8> bytes;      ///< the compressed code region
    std::vector<u32> indexTable; ///< one entry per compression group
    Dictionary highDict{Dictionary::Kind::High};
    Dictionary lowDict{Dictionary::Kind::Low};
    std::vector<BlockExtent> blocks; ///< per block, in group order
    Composition comp;

    /**
     * Soft-error protection attached by protectImage (None on images
     * straight out of the compressor). The check arrays model the spare
     * storage an ECC memory would dedicate to the compressed region;
     * their bytes are charged to comp.protectionBits but live beside
     * the stream, so the unprotected byte layout is untouched.
     */
    ProtectKind protectKind = ProtectKind::None;
    std::vector<u8> blockCheck;      ///< concatenated per-block checks
    std::vector<u32> blockCheckOff;  ///< numBlocks()+1 prefix offsets
    std::vector<u8> indexCheck;      ///< per-entry, indexCheckBytes each

    bool isProtected() const { return protectKind != ProtectKind::None; }

    u32 numGroups() const { return static_cast<u32>(indexTable.size()); }
    u32 numBlocks() const { return static_cast<u32>(blocks.size()); }

    /** Native instruction index of @p addr relative to the text base. */
    u32
    insnIndexOf(Addr addr) const
    {
        return (addr - textBase) >> 2;
    }

    /** Compression group covering native address @p addr. */
    u32 groupOf(Addr addr) const { return insnIndexOf(addr) / kGroupInsns; }

    /** Block-within-group (0/1) covering native address @p addr. */
    u32
    blockOf(Addr addr) const
    {
        return (insnIndexOf(addr) / kBlockInsns) % kBlocksPerGroup;
    }

    /** Flat block number covering native address @p addr. */
    u32
    flatBlockOf(Addr addr) const
    {
        return insnIndexOf(addr) / kBlockInsns;
    }

    /**
     * Compression ratio as the paper defines it (Eq. 1):
     * compressed size / original size, over the .text section, where the
     * compressed size includes index table and dictionaries.
     */
    double
    compressionRatio() const
    {
        return static_cast<double>(comp.totalBytes()) /
               static_cast<double>(origTextBytes);
    }
};

/**
 * Compresses the text segment of @p prog.
 *
 * The text is padded with NOPs up to a whole compression group; the
 * padding exists only inside the compressed image (the native program is
 * untouched) and is charged to the compressed size.
 */
CompressedImage compress(const Program &prog,
                         const CompressorConfig &cfg = CompressorConfig{});

/** Compresses a raw instruction-word vector (tests and tools). */
CompressedImage compressWords(const std::vector<u32> &words, Addr text_base,
                              const CompressorConfig &cfg =
                                  CompressorConfig{});

/**
 * Per-block check-array prefix offsets for @p blocks under @p kind:
 * blocks.size()+1 entries, entry i the byte offset of block i's check
 * bytes within the concatenated array (the last entry is its total
 * size).
 */
std::vector<u32> blockCheckOffsets(ProtectKind kind,
                                   const std::vector<BlockExtent> &blocks);

/**
 * Attaches (or with None, strips) per-block and per-index-entry
 * soft-error check bytes, recomputed from the image's current stream
 * and index table, and charges their storage to comp.protectionBits.
 * Idempotent; the compressed stream itself never changes.
 */
void protectImage(CompressedImage &img, ProtectKind kind);

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_COMPRESSOR_HH
