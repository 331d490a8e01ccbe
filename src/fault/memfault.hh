/**
 * @file
 * Deterministic soft-error injection into a decoded in-memory image.
 *
 * Where FaultInjector corrupts the encoded .cpi container (storage and
 * toolchain faults), MemoryFaultInjector models radiation-style upsets
 * in the RAM holding an already-loaded CompressedImage: single bit
 * flips in the compressed stream, flips in the index table the
 * decompressor chases, and two-bit adjacent bursts. The same (kind,
 * seed) pair always reproduces the same upset.
 *
 * Burst errors flip exactly two adjacent bits: SEC-DED corrects the
 * pair when it straddles two codewords and detects it inside one, and
 * every CRC in the protection palette detects bursts up to its degree,
 * so no modeled fault can be silently miscorrected. Wider bursts would
 * alias under SEC-DED and belong to the detect-only CRC story.
 */

#ifndef CPS_FAULT_MEMFAULT_HH
#define CPS_FAULT_MEMFAULT_HH

#include <string>

#include "codepack/compressor.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace cps
{
namespace fault
{

/** The in-memory upset models the injector can apply. */
enum class MemFaultKind
{
    StreamFlip, ///< one bit in a block's compressed stream bytes
    IndexFlip,  ///< one bit in an index-table entry
    BurstError, ///< two adjacent bits in a block's stream bytes
};

constexpr unsigned kNumMemFaultKinds = 3;

/** All kinds, for sweeps. */
extern const MemFaultKind kAllMemFaultKinds[kNumMemFaultKinds];

/** Short stable name ("stream-flip", "index-flip", "burst-error"). */
const char *memFaultKindName(MemFaultKind kind);

/** Record of one applied upset: enough to describe and replay it. */
struct MemFaultRecord
{
    MemFaultKind kind = MemFaultKind::StreamFlip;
    u64 seed = 0;       ///< injector seed that produced this upset
    u32 group = 0;      ///< affected group (index entry's for IndexFlip)
    u32 flatBlock = 0;  ///< affected flat block (group's first for index)
    u64 bitOffset = 0;  ///< first flipped bit within the block / entry
    unsigned flips = 1; ///< bits flipped (2 for BurstError)

    /** "burst-error seed 0x2a: group 3 block 1, 2 flips from bit 17" */
    std::string describe() const;
};

/**
 * Applies seeded upsets to a live CompressedImage.
 *
 * Mutates only what a soft error can reach — the stream bytes and the
 * index table, never the check arrays (modeled as the ECC spare bits of
 * a protected memory) and never the dictionaries (assumed latched
 * inside the decompressor). Callers sharing the image with a
 * SoftErrorDomain must call noteCorruption() after injecting.
 */
class MemoryFaultInjector
{
  public:
    /** @param img live image to upset; must outlive the injector. */
    MemoryFaultInjector(codepack::CompressedImage &img, u64 seed);

    /** Applies one upset of @p kind. */
    MemFaultRecord inject(MemFaultKind kind);

    /** Applies one upset of a seeded-random kind. */
    MemFaultRecord injectAny();

  private:
    /** A seeded-random flat block with a non-empty stream extent. */
    u32 pickBlock(u64 min_bits);

    codepack::CompressedImage &img_;
    u64 seed_;
    Rng rng_;
};

} // namespace fault
} // namespace cps

#endif // CPS_FAULT_MEMFAULT_HH
