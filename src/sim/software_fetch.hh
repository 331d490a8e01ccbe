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
 */

#ifndef CPS_SIM_SOFTWARE_FETCH_HH
#define CPS_SIM_SOFTWARE_FETCH_HH

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
          statBufferHits_(stats.scalar("swdecomp.buffer_hits"))
    {}

  protected:
    std::array<Cycle, 8>
    fillLine(Addr addr, Cycle now) override
    {
        statTraps_.inc();
        u32 insn_idx = img_.insnIndexOf(addr & ~31u);
        u32 group = insn_idx / codepack::kGroupInsns;
        u32 block =
            (insn_idx / codepack::kBlockInsns) % codepack::kBlocksPerGroup;
        unsigned half = (insn_idx % codepack::kBlockInsns) / 8;

        Cycle t = now + cfg_.trapOverhead;
        std::array<Cycle, 8> ready{};

        if (buf_.valid && buf_.group == group && buf_.block == block) {
            // Scratchpad hit: copy the requested line out once the
            // slot's contents are usable.
            statBufferHits_.inc();
            t = std::max(t, buf_.readyAt);
            for (unsigned w = 0; w < 8; ++w) {
                t += cfg_.copyCyclesPerInsn;
                ready[w] = t;
            }
            for (Cycle &r : ready)
                r += cfg_.returnOverhead;
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
        buf_.valid = true;
        buf_.group = group;
        buf_.block = block;
        buf_.readyAt = t;

        for (unsigned w = 0; w < 8; ++w)
            ready[w] = done[half * 8 + w] + cfg_.returnOverhead;
        return ready;
    }

    void
    resetMissPath() override
    {
        buf_ = Scratch{};
        idxValid_ = false;
    }

  private:
    /** The scratchpad slot holding the last decompressed 16-insn block. */
    struct Scratch
    {
        bool valid = false;
        u32 group = 0;
        u32 block = 0;
        Cycle readyAt = 0; ///< when the slot's contents are usable
    };

    const codepack::CompressedImage &img_;
    codepack::Decompressor decomp_;
    codepack::BlockFetcher fetcher_;
    MainMemory &mem_;
    SoftwareDecompressConfig cfg_;

    Scratch buf_;
    bool idxValid_ = false;
    u32 idxGroup_ = 0;

    Counter &statTraps_;
    Counter &statBufferHits_;
};

} // namespace cps

#endif // CPS_SIM_SOFTWARE_FETCH_HH
