#include "timing.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace cps
{
namespace codepack
{

DecompressorModel::DecompressorModel(const CompressedImage &img,
                                     MainMemory &mem,
                                     const DecompressorConfig &cfg,
                                     StatSet &stats)
    : img_(img), decomp_(img),
      fetcher_(decomp_, &stats),
      mem_(mem), cfg_(cfg),
      idxCache_(cfg.indexCacheLines, cfg.indexesPerLine),
      statMisses_(stats.scalar("decomp.misses")),
      statBufferHits_(stats.scalar("decomp.buffer_hits")),
      statIdxLookups_(stats.scalar("decomp.index_lookups")),
      statIdxHits_(stats.scalar("decomp.index_hits")),
      statInsnsDecoded_(stats.scalar("decomp.insns_decoded"))
{
    cps_assert(cfg.decodeRate >= 1 && cfg.decodeRate <= kBlockInsns,
               "decode rate %u out of range", cfg.decodeRate);
}

void
DecompressorModel::reset()
{
    buffer_ = BlockBuffer{};
    idxCache_.invalidateAll();
}

/**
 * Bursts one block's code, starting once the index entry is available
 * at @p idx_ready, and serially decodes it at the configured rate.
 * Returns per-instruction ready cycles.
 */
std::array<Cycle, kBlockInsns>
DecompressorModel::decodeTiming(u32 group, u32 block, Cycle idx_ready,
                                BurstResult &code_out)
{
    // Burst-read the compressed block. The burst starts at the bus
    // boundary containing the block's first byte.
    const DecodedBlock &blk = fetcher_.get(group, block);
    unsigned bus_bytes = mem_.timing().busBytes();
    u32 start = static_cast<u32>(roundDown(blk.byteOffset, bus_bytes));
    u32 end = blk.byteOffset + std::max<u32>(blk.byteLen, 1);
    BurstResult code = mem_.burstRead(idx_ready, end - start);

    // Arrival time of each instruction's final codeword bit.
    std::array<Cycle, kBlockInsns> arrival;
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        u32 end_byte = blk.byteOffset + (blk.endBit[i] + 7) / 8; // 1 past
        u32 in_burst = end_byte - 1 - start;
        arrival[i] = code.arrivalOfByte(in_burst, bus_bytes);
    }

    // Serial decode at decodeRate instructions per cycle, overlapped
    // with the arriving beats. An instruction decoded during cycle t
    // is available (forwarded) at t; its input bits must have arrived
    // by t-1. Misses block, so the engine is always free here.
    std::array<Cycle, kBlockInsns> ready;
    unsigned decoded = 0;
    Cycle t = code.beatArrival.front();
    while (decoded < kBlockInsns) {
        // Skip idle cycles while waiting for data.
        t = std::max(t + 1, arrival[decoded] + 1);
        unsigned issued = 0;
        while (decoded < kBlockInsns && issued < cfg_.decodeRate &&
               arrival[decoded] <= t - 1) {
            ready[decoded] = t;
            ++decoded;
            ++issued;
        }
    }
    statInsnsDecoded_.inc(kBlockInsns);
    code_out = std::move(code);
    return ready;
}

LineFill
DecompressorModel::handleMiss(Addr line_addr, Cycle now)
{
    cps_assert((line_addr & 31) == 0, "miss address not line aligned");
    statMisses_.inc();

    u32 insn_idx = img_.insnIndexOf(line_addr);
    u32 group = insn_idx / kGroupInsns;
    u32 block = (insn_idx / kBlockInsns) % kBlocksPerGroup;
    unsigned half = (insn_idx % kBlockInsns) / kLineWords;

    trace_ = MissTrace{};
    trace_.requestCycle = now;
    trace_.criticalInsn = half * kLineWords;

    LineFill fill;

    // 1. Output-buffer probe: the previous miss always decompressed the
    //    whole 16-instruction block, so the block's other line (and
    //    re-requests of the same line) stream straight out of the buffer.
    if (buffer_.valid && buffer_.group == group && buffer_.block == block) {
        statBufferHits_.inc();
        trace_.bufferHit = true;
        // Words stream out of the buffer at the decompressor's output
        // rate (its port runs at the decode rate), and no earlier than
        // the original decode produced them.
        Cycle done = now;
        for (unsigned w = 0; w < kLineWords; ++w) {
            Cycle port = now + 1 + w / cfg_.decodeRate;
            fill.wordReady[w] =
                std::max(port, buffer_.ready[half * kLineWords + w]);
            done = std::max(done, fill.wordReady[w]);
        }
        fill.fillDone = done;
        fill.fromBuffer = true;
        return fill;
    }

    // 2. Index-table lookup. The index cache is probed in parallel with
    //    the L1 lookup, so a hit contributes no extra latency.
    Cycle idx_ready = now;
    trace_.indexStart = now;
    if (cfg_.perfectIndexCache) {
        trace_.indexPerfect = true;
        trace_.indexHit = true;
    } else {
        statIdxLookups_.inc();
        if (idxCache_.access(group)) {
            statIdxHits_.inc();
            trace_.indexHit = true;
        } else {
            unsigned bytes = cfg_.burstIndexFill
                                 ? 4 * cfg_.indexesPerLine : 4;
            BurstResult r = mem_.burstRead(now, bytes);
            idx_ready = r.done;
            idxCache_.fill(group);
        }
    }
    trace_.indexDone = idx_ready;

    // 3+4. Burst the compressed block and decode it serially.
    BurstResult code;
    std::array<Cycle, kBlockInsns> ready =
        decodeTiming(group, block, idx_ready, code);
    trace_.codeBeats = code.beatArrival;
    trace_.decodeDone = ready;

    // 5. Fill the output buffer with the complete block (prefetch of
    //    the block's other line) and report the requested line's words.
    buffer_.valid = true;
    buffer_.group = group;
    buffer_.block = block;
    buffer_.ready = ready;

    Cycle done = now;
    for (unsigned w = 0; w < kLineWords; ++w) {
        fill.wordReady[w] = ready[half * kLineWords + w];
        done = std::max(done, fill.wordReady[w]);
    }
    fill.fillDone = done;
    return fill;
}

} // namespace codepack
} // namespace cps
