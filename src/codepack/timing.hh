/**
 * @file
 * Cycle-level model of the CodePack decompression unit on the L1 I-cache
 * miss path (paper §3.2 and Figure 2).
 *
 * Modelled behaviours:
 *   - index-table lookup in main memory, with a fully-associative
 *     true-LRU index cache probed in parallel with the L1 (a hit adds
 *     no latency). The paper's baseline CodePack caches the single
 *     last-used entry (1 line x 1 index); the optimized model uses 64
 *     lines x 4 indexes, and a "perfect" mode never misses (Table 7);
 *   - burst read of the compressed block from main memory;
 *   - serial decode at a configurable rate (1/2/16 instructions per
 *     cycle, Table 8), overlapped with the arriving beats;
 *   - a 16-instruction output buffer that is always filled completely,
 *     acting as a prefetch of the block's other cache line;
 *   - instruction forwarding: the missed word is ready the cycle it is
 *     decoded, not when the whole line is filled.
 */

#ifndef CPS_CODEPACK_TIMING_HH
#define CPS_CODEPACK_TIMING_HH

#include <array>

#include "block_fetcher.hh"
#include "cache/index_cache.hh"
#include "common/stats.hh"
#include "decompressor.hh"
#include "mem/main_memory.hh"

namespace cps
{
namespace codepack
{

/** Decompressor hardware configuration. */
struct DecompressorConfig
{
    /**
     * Index cache geometry (fully associative, true LRU); the baseline
     * is the last-used entry.
     */
    unsigned indexCacheLines = 1;
    unsigned indexesPerLine = 1;
    /** A perfect index cache never misses (index table in on-chip ROM). */
    bool perfectIndexCache = false;
    /** Fetch the whole index-cache line in one burst on an index miss. */
    bool burstIndexFill = false;
    /** Decode bandwidth in instructions per cycle (1, 2, ... 16). */
    unsigned decodeRate = 1;

    /** The paper's optimized configuration (§5.3). */
    static DecompressorConfig
    optimized()
    {
        DecompressorConfig cfg;
        cfg.indexCacheLines = 64;
        cfg.indexesPerLine = 4;
        cfg.burstIndexFill = true;
        cfg.decodeRate = 2;
        return cfg;
    }
};

/** Words per I-cache line (32-byte lines of 4-byte instructions). */
constexpr unsigned kLineWords = 8;

/** Timing of one I-cache line fill produced by the decompressor. */
struct LineFill
{
    /** Cycle each word of the requested line becomes available. */
    std::array<Cycle, kLineWords> wordReady{};
    /** When the complete line has been delivered. */
    Cycle fillDone = 0;
    /** The request was served from the output buffer (the block's
     *  other line, or the same line again). */
    bool fromBuffer = false;
};

/** Event trace of the most recent miss (drives the Figure 2 bench). */
struct MissTrace
{
    Cycle requestCycle = 0;
    bool bufferHit = false;
    bool indexHit = false;
    bool indexPerfect = false;
    Cycle indexStart = 0;
    Cycle indexDone = 0;          ///< when the index entry was available
    std::vector<Cycle> codeBeats; ///< arrival of each compressed-code beat
    std::array<Cycle, kBlockInsns> decodeDone{};
    unsigned criticalInsn = 0;    ///< block-relative index of missed word
};

/** The decompression engine's timing model. */
class DecompressorModel
{
  public:
    /**
     * @param img compressed image of the running program
     * @param mem the memory channel shared with the rest of the machine
     * @param cfg hardware configuration
     * @param stats counters registered under "decomp."
     */
    DecompressorModel(const CompressedImage &img, MainMemory &mem,
                      const DecompressorConfig &cfg, StatSet &stats);

    /**
     * Services an I-cache miss for the 32-byte line at @p line_addr.
     * @param now cycle the miss was detected
     * @return per-word availability of the requested line
     */
    LineFill handleMiss(Addr line_addr, Cycle now);

    /** Clears buffer and index-cache state (not statistics). */
    void reset();

    /** Trace of the most recent handleMiss (for timeline dumps). */
    const MissTrace &lastTrace() const { return trace_; }

    const DecompressorConfig &config() const { return cfg_; }

  private:
    const CompressedImage &img_;
    Decompressor decomp_;
    // Host-side memo: simulated hardware re-decodes a block on every
    // miss, but the functional result never changes, so the host
    // decodes each block on demand and reuses it while it stays in
    // the 64-block LRU (BlockFetcher). reset() deliberately leaves the
    // memo alone — it holds pure functions of the (immutable) image,
    // not simulated state.
    BlockFetcher fetcher_;
    MainMemory &mem_;
    DecompressorConfig cfg_;
    IndexCache idxCache_;

    /** The paper's single 16-instruction output buffer: the block the
     *  last miss decompressed, with each instruction's ready cycle. */
    struct BlockBuffer
    {
        bool valid = false;
        u32 group = 0;
        u32 block = 0;
        std::array<Cycle, kBlockInsns> ready{};
    };
    BlockBuffer buffer_;

    /** Decodes one block's timing: burst + serial decode once the
     *  index entry is ready at @p idx_ready. */
    std::array<Cycle, kBlockInsns> decodeTiming(u32 group, u32 block,
                                                Cycle idx_ready,
                                                BurstResult &code_out);

    MissTrace trace_;

    Counter &statMisses_;
    Counter &statBufferHits_;
    Counter &statIdxLookups_;
    Counter &statIdxHits_;
    Counter &statInsnsDecoded_;
};

} // namespace codepack
} // namespace cps

#endif // CPS_CODEPACK_TIMING_HH
