/**
 * @file
 * The soft-error recovery domain for compressed code held in memory.
 *
 * A SoftErrorDomain pairs a working CompressedImage (the bytes the
 * modeled memory system actually serves, which bit-flip injectors
 * mutate) with a pristine backing copy (the image as it exists in
 * non-volatile storage). Every block fetch is funnelled through
 * verifyBlock, which re-derives the fetched data's ECC/CRC verdict:
 *
 *   Clean         data and checks agree (or an earlier verification in
 *                 the current corruption epoch already vouched for it)
 *   Corrected     SEC-DED repaired a single-bit error in place
 *   Refetched     the check detected an uncorrectable pattern and the
 *                 block (or its index entry) was re-read from backing
 *   Unrecoverable detection persisted through the bounded refetch
 *                 budget — the caller must surface a structured
 *                 DecodeError, never decoded garbage
 *
 * The check arrays themselves are modeled as the ECC spare bits of a
 * protected memory: injectors never flip them, and refetches re-read
 * only data. Verification results are memoized per corruption epoch
 * (noteCorruption starts a new epoch), so steady-state fetches of
 * already-vouched blocks cost one array lookup.
 */

#ifndef CPS_CODEPACK_RESILIENCE_HH
#define CPS_CODEPACK_RESILIENCE_HH

#include <vector>

#include "common/result.hh"
#include "compressor.hh"

namespace cps
{
namespace codepack
{

/** Verdict of routing one block fetch through a SoftErrorDomain. */
enum class FetchCheck : u8
{
    Clean = 0,
    Corrected = 1,
    Refetched = 2,
    Unrecoverable = 3,
};

class SoftErrorDomain
{
  public:
    struct Stats
    {
        u64 blockChecks = 0;   ///< block verifications actually run
        u64 indexChecks = 0;   ///< index-entry verifications run
        u64 corrected = 0;     ///< single-bit errors repaired in place
        u64 correctedBits = 0; ///< total bits repaired
        u64 detected = 0;      ///< uncorrectable detections (pre-refetch)
        u64 refetches = 0;     ///< re-reads from the backing image
        u64 unrecoverable = 0; ///< detections that exhausted the budget
    };

    /**
     * @param mem the working image faults mutate; must be protected
     *        (protectImage) for verification to detect anything, and
     *        must outlive the domain. A pristine backing copy of the
     *        stream and index table is taken here.
     * @param max_retries refetch budget before a detected error is
     *        declared unrecoverable (0 disables refetching)
     */
    SoftErrorDomain(CompressedImage &mem, unsigned max_retries);

    /**
     * Verifies everything block @p flat is decoded from — its group's
     * index entry, then its stream bytes — repairing or refetching in
     * place. Returns the worst verdict encountered; after
     * Unrecoverable, lastError() holds the structured diagnosis.
     */
    FetchCheck verifyBlock(u32 flat);

    /** Diagnosis of the most recent Unrecoverable verdict. */
    const DecodeError &lastError() const { return lastError_; }

    /**
     * An external injector mutated the working image: every memoized
     * verification is stale. Starts a new corruption epoch.
     */
    void noteCorruption() { ++epoch_; }

    /**
     * Test hook: flips @p bit_in_block of block @p flat in the BACKING
     * copy, making a detected error in that block unrecoverable (the
     * refetch source itself is damaged).
     */
    void corruptBacking(u32 flat, u32 bit_in_block);

    const Stats &stats() const { return stats_; }

  private:
    FetchCheck verifyIndexEntry(u32 group);
    FetchCheck verifyBlockBytes(u32 flat);

    CompressedImage &mem_;
    std::vector<u8> backingBytes_;      ///< pristine stream copy
    std::vector<u32> backingIndex_;     ///< pristine index-table copy
    Stats stats_;
    unsigned maxRetries_;
    u64 epoch_ = 1;
    std::vector<u64> verifiedEpoch_;    ///< per flat block; 0 = never
    DecodeError lastError_;
};

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_RESILIENCE_HH
