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
      fetcher_(decomp_, &stats, cfg.softErrorDomain),
      mem_(mem), cfg_(cfg),
      idxCache_(cfg.indexCacheLines, cfg.indexesPerLine,
                cfg.indexReplacement, cfg.indexCacheSets),
      statMisses_(stats.scalar("decomp.misses")),
      statBufferHits_(stats.scalar("decomp.buffer_hits")),
      statIdxLookups_(stats.scalar("decomp.index_lookups")),
      statIdxHits_(stats.scalar("decomp.index_hits")),
      statInsnsDecoded_(stats.scalar("decomp.insns_decoded")),
      statPfIssued_(stats.scalar("decomp.prefetch_issued")),
      statPfHits_(stats.scalar("decomp.prefetch_hits"))
{
    cps_assert(cfg.decodeRate >= 1 && cfg.decodeRate <= kBlockInsns,
               "decode rate %u out of range", cfg.decodeRate);
    cps_assert(cfg.prefetch == PrefetchKind::None || cfg.prefetchDepth >= 1,
               "prefetch depth must be at least 1");
    cps_assert(!cfg.softErrorDomain ||
                   &cfg.softErrorDomain->memory() == &img,
               "soft-error domain wraps a different image than the model");
    unsigned pf_slots =
        cfg.prefetch == PrefetchKind::None ? 0 : cfg.prefetchDepth;
    buffers_.resize(1 + pf_slots);
}

void
DecompressorModel::reset()
{
    for (BlockBuffer &b : buffers_)
        b = BlockBuffer{};
    pfRotor_ = 0;
    havePrevReq_ = false;
    prevReqFlat_ = 0;
    lastStride_ = 0;
    strideConf_ = 0;
    engineBusyUntil_ = 0;
    idxCache_.invalidateAll();
}

/**
 * Bursts one block's code and serially decodes it at the configured
 * rate, no earlier than @p idx_ready (index available) and the engine
 * becoming free. Returns per-instruction ready cycles and advances
 * engineBusyUntil_.
 */
std::array<Cycle, kBlockInsns>
DecompressorModel::decodeTiming(u32 group, u32 block, Cycle idx_ready,
                                BurstResult *code_out)
{
    // Burst-read the compressed block. The burst starts at the bus
    // boundary containing the block's first byte.
    const DecodedBlock *blkp;
    if (fetcher_.domain()) {
        Result<const DecodedBlock *> r = fetcher_.tryGetFlat(
            group * kBlocksPerGroup + block);
        if (!r) {
            // Unrecoverable corruption: latch the fault and hand back a
            // trivially-finite fill so the pipeline drains instead of
            // deadlocking; the machine aborts the run off the latch.
            softError_ = true;
            softErrorDetail_ = r.error();
            std::array<Cycle, kBlockInsns> ready;
            ready.fill(idx_ready + 1);
            if (code_out)
                *code_out = BurstResult{};
            return ready;
        }
        blkp = *r;
    } else {
        blkp = &fetcher_.get(group, block);
    }
    const DecodedBlock &blk = *blkp;
    unsigned bus_bytes = mem_.timing().busBytes();
    u32 start = static_cast<u32>(roundDown(blk.byteOffset, bus_bytes));
    u32 end = blk.byteOffset + std::max<u32>(blk.byteLen, 1);
    BurstResult code = mem_.burstRead(idx_ready, end - start);

    // Protection cost: the pipelined ECC/CRC check sits between the
    // memory channel and the decoder, delaying every beat by its fixed
    // latency. A single-bit repair adds the correction pass; a detected
    // error discards the burst and re-reads the block from backing
    // storage (a second full burst) before checking again.
    Cycle check_lat = 0;
    if (cfg_.protect != ProtectKind::None) {
        check_lat = cfg_.eccCheckCycles;
        switch (fetcher_.lastCheck()) {
          case FetchCheck::Clean:
            break;
          case FetchCheck::Corrected:
            check_lat += cfg_.eccCorrectCycles;
            break;
          case FetchCheck::Refetched:
            code = mem_.burstRead(code.done + cfg_.eccCheckCycles,
                                  end - start);
            break;
          case FetchCheck::Unrecoverable:
            // tryGetFlat already failed above; unreachable here.
            break;
        }
    }

    // Arrival time of each instruction's final codeword bit.
    std::array<Cycle, kBlockInsns> arrival;
    for (unsigned i = 0; i < kBlockInsns; ++i) {
        u32 end_byte = blk.byteOffset + (blk.endBit[i] + 7) / 8; // 1 past
        u32 in_burst = end_byte - 1 - start;
        arrival[i] = code.arrivalOfByte(in_burst, bus_bytes) + check_lat;
    }

    // Serial decode at decodeRate instructions per cycle, overlapped
    // with the arriving beats. An instruction decoded during cycle t
    // is available (forwarded) at t; its input bits must have arrived
    // by t-1. The single decode engine handles one block at a time, so
    // speculative decodes queue behind whatever it is still working on.
    std::array<Cycle, kBlockInsns> ready;
    unsigned decoded = 0;
    // Engine occupancy only matters once speculative decodes can be in
    // flight; without a prefetcher there is a single blocking miss at a
    // time and the paper's timing is reproduced exactly.
    Cycle busy =
        cfg_.prefetch == PrefetchKind::None ? 0 : engineBusyUntil_;
    Cycle t = std::max(code.beatArrival.front() + check_lat, busy);
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
    engineBusyUntil_ = ready[kBlockInsns - 1];
    if (code_out)
        *code_out = std::move(code);
    return ready;
}

/**
 * Predicts the blocks to fetch after a demand for flat block @p flat
 * and speculatively decodes them into the prefetch buffers. Prefetch
 * bursts share the single memory channel (they queue behind demand
 * traffic) and the decode engine serializes behind the demand decode.
 */
void
DecompressorModel::issuePrefetches(u32 flat, Cycle now)
{
    s64 stride = 1;
    unsigned depth = cfg_.prefetchDepth;
    if (cfg_.prefetch == PrefetchKind::Stride) {
        // Only act on a twice-confirmed non-zero stride.
        if (strideConf_ < 2 || lastStride_ == 0)
            return;
        stride = lastStride_;
    }

    for (unsigned k = 1; k <= depth; ++k) {
        s64 pred = static_cast<s64>(flat) + stride * static_cast<s64>(k);
        if (pred < 0 || pred >= static_cast<s64>(img_.numBlocks()))
            continue;
        u32 pgroup = static_cast<u32>(pred) / kBlocksPerGroup;
        u32 pblock = static_cast<u32>(pred) % kBlocksPerGroup;
        bool resident = false;
        for (const BlockBuffer &b : buffers_)
            if (b.valid && b.group == pgroup && b.block == pblock)
                resident = true;
        if (resident)
            continue;

        // Index lookup for the predicted group, same path as demand.
        Cycle idx_ready = now;
        if (!cfg_.perfectIndexCache) {
            statIdxLookups_.inc();
            if (idxCache_.access(pgroup)) {
                statIdxHits_.inc();
            } else {
                unsigned bytes =
                    cfg_.burstIndexFill ? 4 * cfg_.indexesPerLine : 4;
                BurstResult r = mem_.burstRead(now, bytes);
                idx_ready = r.done;
                idxCache_.fill(pgroup);
            }
        }

        BlockBuffer &slot = buffers_[1 + (pfRotor_++ % depth)];
        slot.valid = true;
        slot.prefetched = true;
        slot.group = pgroup;
        slot.block = pblock;
        slot.ready = decodeTiming(pgroup, pblock, idx_ready, nullptr);
        statPfIssued_.inc();
    }
}

LineFill
DecompressorModel::handleMiss(Addr line_addr, Cycle now)
{
    cps_assert((line_addr & 31) == 0, "miss address not line aligned");
    statMisses_.inc();

    u32 insn_idx = img_.insnIndexOf(line_addr);
    u32 group = insn_idx / kGroupInsns;
    u32 block = (insn_idx / kBlockInsns) % kBlocksPerGroup;
    u32 flat = insn_idx / kBlockInsns;
    unsigned half = (insn_idx % kBlockInsns) / kLineWords;

    trace_ = MissTrace{};
    trace_.requestCycle = now;
    trace_.criticalInsn = half * kLineWords;

    // Train the prefetcher on transitions of the demanded block (the
    // second line of a block must not look like a new stride sample).
    bool new_block = false;
    if (cfg_.prefetch != PrefetchKind::None &&
        (!havePrevReq_ || prevReqFlat_ != flat)) {
        new_block = true;
        if (havePrevReq_) {
            s64 stride =
                static_cast<s64>(flat) - static_cast<s64>(prevReqFlat_);
            if (stride == lastStride_) {
                ++strideConf_;
            } else {
                lastStride_ = stride;
                strideConf_ = 1;
            }
        }
        havePrevReq_ = true;
        prevReqFlat_ = flat;
    }

    LineFill fill;

    // 1. Output-buffer probe: the previous miss always decompressed the
    //    whole 16-instruction block, so the block's other line (and
    //    re-requests of the same line) stream straight out of the buffer.
    //    With a prefetcher, speculatively decoded blocks hit here too.
    for (BlockBuffer &buf : buffers_) {
        if (!buf.valid || buf.group != group || buf.block != block)
            continue;
        statBufferHits_.inc();
        if (buf.prefetched) {
            statPfHits_.inc();
            buf.prefetched = false; // count each useful prefetch once
        }
        trace_.bufferHit = true;
        // Words stream out of the buffer at the decompressor's output
        // rate (its port runs at the decode rate), and no earlier than
        // the original decode produced them.
        Cycle done = now;
        for (unsigned w = 0; w < kLineWords; ++w) {
            Cycle port = now + 1 + w / cfg_.decodeRate;
            fill.wordReady[w] =
                std::max(port, buf.ready[half * kLineWords + w]);
            done = std::max(done, fill.wordReady[w]);
        }
        fill.fillDone = done;
        fill.fromBuffer = true;
        if (new_block)
            issuePrefetches(flat, now);
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

    // 3+4. Burst the compressed block and decode it serially (the
    //      demand decode preempts nothing: the engine is free by
    //      construction on the no-prefetch path, and queues behind any
    //      in-flight speculative decode otherwise).
    BurstResult code;
    std::array<Cycle, kBlockInsns> ready =
        decodeTiming(group, block, idx_ready, &code);
    trace_.codeBeats = code.beatArrival;
    trace_.decodeDone = ready;

    // 5. Fill the demand output buffer with the complete block
    //    (prefetch of the block's other line) and report the requested
    //    line's words.
    buffers_[0].valid = true;
    buffers_[0].prefetched = false;
    buffers_[0].group = group;
    buffers_[0].block = block;
    buffers_[0].ready = ready;

    Cycle done = now;
    for (unsigned w = 0; w < kLineWords; ++w) {
        fill.wordReady[w] = ready[half * kLineWords + w];
        done = std::max(done, fill.wordReady[w]);
    }
    fill.fillDone = done;
    if (new_block)
        issuePrefetches(flat, now);
    return fill;
}

} // namespace codepack
} // namespace cps
