/**
 * @file
 * Functional CodePack decompression (the bit-exact inverse of the
 * compressor) plus the per-instruction bit positions the timing model
 * needs to know which memory beat completes which instruction.
 *
 * Two decoders, one per job: the checked bit-serial reference
 * (tryDecompressBlock) for images from outside the process, and one
 * trusted LUT kernel (decompressBlock) for the simulator's own images.
 * They decode bit-identically (enforced by test_decode_lut).
 */

#ifndef CPS_CODEPACK_DECOMPRESSOR_HH
#define CPS_CODEPACK_DECOMPRESSOR_HH

#include <array>
#include <vector>

#include "common/result.hh"
#include "common/types.hh"
#include "compressor.hh"

namespace cps
{
namespace codepack
{

/** One decompressed 16-instruction block. */
struct DecodedBlock
{
    std::array<u32, kBlockInsns> words{};
    /**
     * For each instruction, the bit offset (from the start of the block's
     * bytes) just past its final codeword bit. The serial decoder cannot
     * emit instruction i before the beat carrying this bit arrives.
     */
    std::array<u32, kBlockInsns> endBit{};
    u32 byteOffset = 0; ///< of the block within the compressed region
    u32 byteLen = 0;
    bool raw = false;
};

/** Stateless functional decompressor over a CompressedImage. */
class Decompressor
{
  public:
    /** @param img the image to decode (must outlive the decompressor) */
    explicit Decompressor(const CompressedImage &img) : img_(img) {}

    /**
     * Decompresses block @p block (0/1) of compression group @p group.
     * Walks the index table exactly as the hardware would.
     *
     * Trusted-input variant: any malformation panics. The simulator's
     * hot path uses this on images it compressed itself; anything that
     * came off disk should be decoded via tryDecompressBlock (or fully
     * vetted with tryDecompressAll once at load).
     *
     * Decoding runs through the dictionaries' single-pass LUT kernel;
     * any anomaly falls back to the checked bit-serial path so the
     * panic diagnostics are identical to tryDecompressBlock's errors
     * (DESIGN.md, "Decode kernel").
     */
    DecodedBlock decompressBlock(u32 group, u32 block) const;

    /**
     * Checked variant for untrusted images: an out-of-range index
     * entry, truncated codeword, or length cross-check failure comes
     * back as a structured DecodeError (bit offsets are absolute
     * within the compressed byte region) instead of aborting.
     */
    Result<DecodedBlock> tryDecompressBlock(u32 group, u32 block) const;

    /** Decompresses the flat block number @p flat_block. */
    DecodedBlock
    decompressFlatBlock(u32 flat_block) const
    {
        return decompressBlock(flat_block / kBlocksPerGroup,
                               flat_block % kBlocksPerGroup);
    }

    /** Decompresses the whole image back to instruction words. */
    std::vector<u32> decompressAll() const;

    /**
     * Checked whole-image decode: validates the image structure, then
     * decodes every block through the checked path. The error carries
     * the first failing group/block in its message.
     */
    Result<std::vector<u32>> tryDecompressAll() const;

    const CompressedImage &image() const { return img_; }

  private:
    /**
     * The trusted fast kernel: one LUT probe per codeword off a fused
     * 22-bit peek per instruction. Returns false (leaving @p out
     * unspecified) when the stream needs the checked decoder — the
     * caller re-decodes via tryDecompressBlock for the diagnostic.
     */
    bool fastDecompressBlock(u32 group, u32 block, DecodedBlock &out) const;

    const CompressedImage &img_;
};

/**
 * Structural validation of a decoded image: header-field consistency
 * (group/block counts vs paddedInsns, origTextBytes within the padded
 * region) and every index-table entry and block extent within the
 * compressed byte region. Does not decode codewords — use
 * Decompressor::tryDecompressAll for a full vet.
 */
Result<void> validateImage(const CompressedImage &img);

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_DECOMPRESSOR_HH
