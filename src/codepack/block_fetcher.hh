/**
 * @file
 * Host-side LRU memo of decoded blocks over the functional
 * decompressor.
 *
 * The fetcher decodes only what its caller asks for, one block per
 * miss, as the paper's CodePack unit does; a hit returns the cached
 * copy. It never decodes ahead: decoding predicted spans made Table 10
 * slower and no table faster (DESIGN.md, "Adaptive decompression
 * prefetch").
 *
 * The hot path is allocation-free: entries live in a fixed slab with
 * intrusive LRU links, and the flat->slot map is a dense vector (flat
 * block numbers are small and bounded by the image).
 *
 * Determinism: every cache decision and counter is a pure function of
 * the access sequence. A fetcher is single-consumer and starts no
 * threads; any number of fetchers may share one (immutable)
 * Decompressor.
 */

#ifndef CPS_CODEPACK_BLOCK_FETCHER_HH
#define CPS_CODEPACK_BLOCK_FETCHER_HH

#include <vector>

#include "common/stats.hh"
#include "decompressor.hh"
#include "resilience.hh"

namespace cps
{
namespace codepack
{

/** LRU memo of decoded blocks, filled on demand. */
class BlockFetcher
{
  public:
    /** Capacity in blocks of every fetcher on a simulation path. */
    static constexpr unsigned kDefaultSlots = 64;

    /**
     * @param decomp decompressor to memoize (must outlive the fetcher)
     * @param stats optional registry for "hostpf." counters
     * @param domain optional soft-error domain; when given, it must
     *        wrap the image @p decomp decodes, every fetch is verified
     *        through it first, cached copies of a block whose memory
     *        was repaired are poison-invalidated and re-decoded, all
     *        decodes run checked (a corruption that slips past a weak
     *        CRC surfaces as a structured error, never a panic)
     * @param slots LRU capacity in blocks (min 1)
     */
    explicit BlockFetcher(const Decompressor &decomp,
                          StatSet *stats = nullptr,
                          SoftErrorDomain *domain = nullptr,
                          unsigned slots = kDefaultSlots);

    BlockFetcher(const BlockFetcher &) = delete;
    BlockFetcher &operator=(const BlockFetcher &) = delete;

    /**
     * The decoded block, from the cache when present. The reference
     * stays valid until the next get().
     */
    const DecodedBlock &get(u32 group, u32 block);

    /** As get(group, block), keyed by flat block number. */
    const DecodedBlock &getFlat(u32 flat);

    /**
     * Checked fetch for soft-error callers: an unrecoverable
     * corruption (or a decode failure that slipped past a weak check)
     * comes back as the structured DecodeError instead of a panic. The
     * returned pointer follows getFlat's lifetime contract. Without a
     * domain this never fails.
     */
    Result<const DecodedBlock *> tryGetFlat(u32 flat);

    /**
     * ECC/CRC verdict of the most recent (try)getFlat when a domain is
     * attached; Clean otherwise.
     */
    FetchCheck lastCheck() const { return lastCheck_; }

    /** Successful accesses served from the cache. */
    u64 hits() const { return hits_; }
    /** Successful accesses that decoded the block. */
    u64 fills() const { return fills_; }
    /** Cached copies discarded after their memory was found corrupt. */
    u64 poisons() const { return poisons_; }
    unsigned slots() const { return static_cast<unsigned>(slab_.size()); }

  private:
    struct Entry
    {
        u32 flat = kInvalid;
        DecodedBlock blk;
        u32 prev = kInvalid, next = kInvalid; ///< intrusive LRU chain
    };
    static constexpr u32 kInvalid = ~0u;

    void unlink(u32 i);
    void pushFront(u32 i);
    /** The cached copy of @p flat made MRU and counted as a hit, or
     *  null when it is not resident. */
    const DecodedBlock *lookup(u32 flat);
    /** Caches @p blk as @p flat in a fresh slot or the LRU victim's,
     *  counted as a fill. */
    const DecodedBlock &fill(u32 flat, const DecodedBlock &blk);
    /** Discards @p flat's cached copy (its memory was corrupt) and
     *  parks the slot at the LRU tail as the next eviction victim. */
    void poisonSlot(u32 flat);

    const Decompressor &decomp_;

    std::vector<Entry> slab_;  ///< fixed; intrusive links, no realloc
    u32 head_ = kInvalid;      ///< most recently used
    u32 tail_ = kInvalid;      ///< least recently used
    u32 live_ = 0;             ///< slab entries handed out so far
    std::vector<u32> map_;     ///< flat -> slab index (dense)

    SoftErrorDomain *domain_ = nullptr;
    FetchCheck lastCheck_ = FetchCheck::Clean;

    u64 hits_ = 0;
    u64 fills_ = 0;
    u64 poisons_ = 0;
    Counter *statHits_ = nullptr;
    Counter *statFills_ = nullptr;
};

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_BLOCK_FETCHER_HH
