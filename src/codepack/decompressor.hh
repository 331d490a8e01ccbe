/**
 * @file
 * Functional CodePack decompression (the bit-exact inverse of the
 * compressor) plus the per-instruction bit positions the timing model
 * needs to know which memory beat completes which instruction.
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

/**
 * Which kernel the trusted decompressBlock path runs. The ladder, from
 * reference to fastest (see DESIGN.md, "Decode kernels"):
 *
 *   - Checked: the bit-serial tryDecompressBlock reference, promoted to
 *     trusted semantics (panic on malformation);
 *   - Lut: one LUT probe per codeword, two probes per instruction off
 *     a fused 22-bit peek (the PR 2 kernel);
 *   - Lut2: a register-resident bit buffer feeds the fused PairLut,
 *     which resolves both codewords of an instruction in one probe
 *     whenever they pack into its PairLut::kBits window, one-and-a-bit
 *     probes otherwise; raw halfword escapes decode inline from the
 *     buffer without dropping to the checked path.
 *
 * Every rung decodes bit-identically (enforced by test_decode_lut);
 * the knob exists so benches can ablate kernels.
 */
enum class DecodeKernel { Checked, Lut, Lut2 };

/**
 * The process-wide default kernel: CPS_DECODE_KERNEL=checked|lut|lut2,
 * read once; unset or malformed values mean Lut2 (malformed warns).
 */
DecodeKernel defaultDecodeKernel();

/** The knob spelling of @p kernel ("checked"/"lut"/"lut2"). */
const char *decodeKernelName(DecodeKernel kernel);

/** Stateless functional decompressor over a CompressedImage. */
class Decompressor
{
  public:
    /**
     * @param img the image to decode (must outlive the decompressor)
     * @param kernel trusted-path kernel; defaults to the
     *        CPS_DECODE_KERNEL choice. The PairLut is only built for
     *        Lut2, so ablation decompressors cost nothing extra.
     */
    explicit Decompressor(const CompressedImage &img,
                          DecodeKernel kernel = defaultDecodeKernel())
        : img_(img), kernel_(kernel)
    {
        if (kernel_ == DecodeKernel::Lut2)
            pair_ = PairLut(img.highDict, img.lowDict);
    }

    DecodeKernel kernel() const { return kernel_; }

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
     * panic diagnostics are identical to tryDecompressBlock's errors.
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

    /**
     * Trusted batched decode of @p count consecutive blocks starting
     * at flat block @p first, into @p outs.
     *
     * Blocks are independently indexed bitstreams, so the Lut2 kernel
     * decodes up to four of them interleaved in one loop: the
     * per-block bit-buffer/LUT-probe dependency chains overlap instead
     * of serializing, which is where the batched kernel's headline
     * per-block latency comes from (bench_ext_simperf's decode
     * section). Results are bit-identical to per-block decode; any
     * anomaly, raw block, or non-Lut2 kernel falls back to
     * decompressBlock per block (same trusted semantics: malformation
     * panics with the checked path's diagnostics).
     */
    void decompressBlocks(u32 first, u32 count, DecodedBlock *outs) const;

    /**
     * Trusted batched decode of both blocks of @p group — the burst
     * shape of the hardware decompressor, which fills a group's two
     * cache lines from one index-table lookup.
     */
    void
    decompressGroup(u32 group, DecodedBlock outs[kBlocksPerGroup]) const
    {
        decompressBlocks(group * kBlocksPerGroup, kBlocksPerGroup, outs);
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
     * Single-symbol LUT fast path (DecodeKernel::Lut). Returns false
     * (leaving @p out unspecified) when the stream needs the checked
     * decoder — the caller re-decodes via tryDecompressBlock for the
     * diagnostic.
     */
    bool fastDecompressBlock(u32 group, u32 block, DecodedBlock &out) const;

    /**
     * Batched pair-LUT fast path (DecodeKernel::Lut2): one PairLut
     * probe per instruction in the common case, with the same
     * decline-to-checked contract as fastDecompressBlock.
     */
    bool fastDecompressBlock2(u32 group, u32 block,
                              DecodedBlock &out) const;

    /**
     * Shared fast-path prologue: resolves the block's framing from the
     * index table into @p out and, for raw blocks, copies the native
     * words. Returns false when the framing itself is malformed (the
     * checked path owns the diagnostic). Sets @p done when @p out is
     * already complete (raw block).
     */
    bool frameFastBlock(u32 group, u32 block, DecodedBlock &out,
                        bool &done) const;

    /**
     * Interleaved decode of @p width (2 or 4) consecutive non-raw
     * blocks starting at flat block @p first. Returns false — and the
     * caller re-decodes per block — when any block is raw or any
     * stream declines to the checked path.
     */
    bool fastDecodeBatch(u32 first, unsigned width,
                         DecodedBlock *outs) const;

    const CompressedImage &img_;
    DecodeKernel kernel_;
    PairLut pair_; ///< built only for DecodeKernel::Lut2
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
