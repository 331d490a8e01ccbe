/**
 * @file
 * Software-managed CodePack decompression — the paper's future-work
 * suggestion (§6): "Even completely software-managed decompression may
 * be an attractive option to resource limited computers."
 *
 * Model: an I-cache miss traps to a handler running on the core. The
 * handler loads the index entry (a real memory access; software keeps
 * the last entry in a register, mirroring the hardware baseline),
 * burst-reads the compressed block, decodes it at a software rate of
 * several cycles per instruction, and keeps the decompressed block in a
 * scratchpad buffer so the block's other line costs only a short copy
 * loop. Decode cannot overlap the memory transfer the way the hardware
 * engine does: the handler starts only after the burst completes (it
 * reads the compressed bytes from a DMA buffer).
 *
 * Optional software prefetch (bench_ext_prefetch_adapt): before
 * returning, the handler can queue DMA bursts for predicted next blocks
 * and decode them into extra scratchpad slots. The model charges the
 * memory channel for the bursts and full decode latency before a
 * prefetched slot becomes usable, but assumes the decode work itself
 * hides in core idle cycles (an optimistic "free decode slack"
 * assumption — see DESIGN.md). A trap that lands on a still-cooking
 * slot waits for its ready cycle, then pays only the copy loop.
 */

#ifndef CPS_SIM_SOFTWARE_FETCH_HH
#define CPS_SIM_SOFTWARE_FETCH_HH

#include <vector>

#include "codepack/block_fetcher.hh"
#include "codepack/decompressor.hh"
#include "codepack/timing.hh"
#include "pipeline/paths.hh"

namespace cps
{

/** Cost parameters of the software decompression handler. */
struct SoftwareDecompressConfig
{
    /** Trap entry + register save + dispatch, cycles. */
    Cycle trapOverhead = 24;
    /** Handler decode cost per instruction (bit twiddling + table
     *  lookups + store), cycles. */
    Cycle cyclesPerInsn = 8;
    /** Copy cost per instruction when the block is already in the
     *  scratchpad buffer. */
    Cycle copyCyclesPerInsn = 2;
    /** Trap return, cycles. */
    Cycle returnOverhead = 8;
    /** Software prefetch into extra scratchpad slots; None = paper. */
    codepack::PrefetchKind prefetch = codepack::PrefetchKind::None;
    /** Blocks predicted per trap; also the extra scratchpad slots. */
    unsigned prefetchDepth = 1;
};

/** Fetch path whose miss handler is a software routine on the core. */
class SoftwareCodePackFetchPath : public CachedFetchPath
{
  public:
    SoftwareCodePackFetchPath(const CacheConfig &icache_cfg,
                              const codepack::CompressedImage &img,
                              MainMemory &mem,
                              const SoftwareDecompressConfig &cfg,
                              StatSet &stats)
        : CachedFetchPath(icache_cfg, stats), img_(img), decomp_(img),
          fetcher_(decomp_, &stats),
          mem_(mem), cfg_(cfg),
          statTraps_(stats.scalar("swdecomp.traps")),
          statBufferHits_(stats.scalar("swdecomp.buffer_hits")),
          statPfIssued_(stats.scalar("swdecomp.prefetch_issued")),
          statPfHits_(stats.scalar("swdecomp.prefetch_hits"))
    {
        unsigned pf_slots =
            cfg.prefetch == codepack::PrefetchKind::None
                ? 0 : cfg.prefetchDepth;
        bufs_.resize(1 + pf_slots);
    }

  protected:
    std::array<Cycle, 8>
    fillLine(Addr addr, Cycle now) override
    {
        statTraps_.inc();
        u32 insn_idx = img_.insnIndexOf(addr & ~31u);
        u32 group = insn_idx / codepack::kGroupInsns;
        u32 block =
            (insn_idx / codepack::kBlockInsns) % codepack::kBlocksPerGroup;
        u32 flat = insn_idx / codepack::kBlockInsns;
        unsigned half = (insn_idx % codepack::kBlockInsns) / 8;

        // Train the predictor on transitions of the demanded block.
        bool new_block = false;
        if (cfg_.prefetch != codepack::PrefetchKind::None &&
            (!havePrevReq_ || prevReqFlat_ != flat)) {
            new_block = true;
            if (havePrevReq_) {
                s64 stride = static_cast<s64>(flat) -
                             static_cast<s64>(prevReqFlat_);
                if (stride == lastStride_)
                    ++strideConf_;
                else {
                    lastStride_ = stride;
                    strideConf_ = 1;
                }
            }
            havePrevReq_ = true;
            prevReqFlat_ = flat;
        }

        Cycle t = now + cfg_.trapOverhead;
        std::array<Cycle, 8> ready{};

        for (Scratch &buf : bufs_) {
            if (!buf.valid || buf.group != group || buf.block != block)
                continue;
            // Scratchpad hit: wait out any still-cooking prefetch fill,
            // then copy the requested line out.
            statBufferHits_.inc();
            if (buf.prefetched) {
                statPfHits_.inc();
                buf.prefetched = false;
            }
            t = std::max(t, buf.readyAt);
            for (unsigned w = 0; w < 8; ++w) {
                t += cfg_.copyCyclesPerInsn;
                ready[w] = t;
            }
            for (Cycle &r : ready)
                r += cfg_.returnOverhead;
            if (new_block)
                issuePrefetches(flat, ready[7]);
            return ready;
        }

        // Index entry: software keeps the last-used entry in a register.
        if (!(idxValid_ && idxGroup_ == group)) {
            BurstResult idx = mem_.burstRead(t, 4);
            t = idx.done + 1; // the load's use
            idxValid_ = true;
            idxGroup_ = group;
        }

        // Burst the compressed block into the DMA buffer; the handler
        // only starts decoding once the transfer is complete. The host
        // memoizes the functional decode by (group, block); the
        // simulated handler still pays full decode cycles below.
        const codepack::DecodedBlock &blk = fetcher_.get(group, block);
        BurstResult burst =
            mem_.burstRead(t, std::max<u32>(blk.byteLen, 1));
        t = burst.done;

        // Serial software decode.
        std::array<Cycle, codepack::kBlockInsns> done{};
        for (unsigned i = 0; i < codepack::kBlockInsns; ++i) {
            t += cfg_.cyclesPerInsn;
            done[i] = t;
        }
        bufs_[0].valid = true;
        bufs_[0].prefetched = false;
        bufs_[0].group = group;
        bufs_[0].block = block;
        bufs_[0].readyAt = t;

        for (unsigned w = 0; w < 8; ++w)
            ready[w] = done[half * 8 + w] + cfg_.returnOverhead;
        if (new_block) {
            Cycle end = ready[0];
            for (Cycle r : ready)
                end = std::max(end, r);
            issuePrefetches(flat, end);
        }
        return ready;
    }

    void
    resetMissPath() override
    {
        for (Scratch &b : bufs_)
            b = Scratch{};
        idxValid_ = false;
        pfRotor_ = 0;
        havePrevReq_ = false;
        prevReqFlat_ = 0;
        lastStride_ = 0;
        strideConf_ = 0;
    }

  private:
    /** One scratchpad slot holding a decompressed 16-insn block. */
    struct Scratch
    {
        bool valid = false;
        bool prefetched = false; ///< speculative fill, not yet claimed
        u32 group = 0;
        u32 block = 0;
        Cycle readyAt = 0; ///< when the slot's contents are usable
    };

    /** Queues predicted-block fills after the trap returns at @p start. */
    void
    issuePrefetches(u32 flat, Cycle start)
    {
        s64 stride = 1;
        if (cfg_.prefetch == codepack::PrefetchKind::Stride) {
            if (strideConf_ < 2 || lastStride_ == 0)
                return;
            stride = lastStride_;
        }
        Cycle t = start;
        for (unsigned k = 1; k <= cfg_.prefetchDepth; ++k) {
            s64 pred =
                static_cast<s64>(flat) + stride * static_cast<s64>(k);
            if (pred < 0 || pred >= static_cast<s64>(img_.numBlocks()))
                continue;
            u32 pgroup = static_cast<u32>(pred) / codepack::kBlocksPerGroup;
            u32 pblock = static_cast<u32>(pred) % codepack::kBlocksPerGroup;
            bool resident = false;
            for (const Scratch &b : bufs_)
                if (b.valid && b.group == pgroup && b.block == pblock)
                    resident = true;
            if (resident)
                continue;
            if (!(idxValid_ && idxGroup_ == pgroup)) {
                BurstResult idx = mem_.burstRead(t, 4);
                t = idx.done + 1;
                idxValid_ = true;
                idxGroup_ = pgroup;
            }
            const codepack::DecodedBlock &blk =
                fetcher_.get(pgroup, pblock);
            BurstResult burst =
                mem_.burstRead(t, std::max<u32>(blk.byteLen, 1));
            t = burst.done;
            Scratch &slot = bufs_[1 + (pfRotor_++ % cfg_.prefetchDepth)];
            slot.valid = true;
            slot.prefetched = true;
            slot.group = pgroup;
            slot.block = pblock;
            // Decode latency is charged before the slot is usable, but
            // the decode work itself is assumed to hide in idle cycles.
            slot.readyAt =
                t + codepack::kBlockInsns * cfg_.cyclesPerInsn;
            statPfIssued_.inc();
        }
    }

    const codepack::CompressedImage &img_;
    codepack::Decompressor decomp_;
    codepack::BlockFetcher fetcher_;
    MainMemory &mem_;
    SoftwareDecompressConfig cfg_;

    std::vector<Scratch> bufs_; ///< [0] = demand; rest = prefetch slots
    unsigned pfRotor_ = 0;
    bool idxValid_ = false;
    u32 idxGroup_ = 0;
    bool havePrevReq_ = false;
    u32 prevReqFlat_ = 0;
    s64 lastStride_ = 0;
    unsigned strideConf_ = 0;

    Counter &statTraps_;
    Counter &statBufferHits_;
    Counter &statPfIssued_;
    Counter &statPfHits_;
};

} // namespace cps

#endif // CPS_SIM_SOFTWARE_FETCH_HH
