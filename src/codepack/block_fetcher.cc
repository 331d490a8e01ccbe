#include "block_fetcher.hh"

#include "common/logging.hh"

namespace cps
{
namespace codepack
{

BlockFetcher::BlockFetcher(const Decompressor &decomp, StatSet *stats,
                           SoftErrorDomain *domain, unsigned slots)
    : decomp_(decomp), domain_(domain)
{
    slab_.resize(slots < 1 ? 1 : slots);
    map_.assign(decomp_.image().numBlocks(), kInvalid);
    if (stats) {
        statHits_ = &stats->scalar("hostpf.hits");
        statFills_ = &stats->scalar("hostpf.fills");
    }
}

const DecodedBlock &
BlockFetcher::get(u32 group, u32 block)
{
    return getFlat(group * kBlocksPerGroup + block);
}

const DecodedBlock &
BlockFetcher::getFlat(u32 flat)
{
    if (domain_) {
        Result<const DecodedBlock *> r = tryGetFlat(flat);
        if (!r)
            cps_panic("getFlat on a failed soft-error domain: %s",
                      r.error().describe().c_str());
        return **r;
    }
    if (const DecodedBlock *hit = lookup(flat))
        return *hit;
    return fill(flat, decomp_.decompressFlatBlock(flat));
}

Result<const DecodedBlock *>
BlockFetcher::tryGetFlat(u32 flat)
{
    if (!domain_)
        return &getFlat(flat);
    lastCheck_ = domain_->verifyBlock(flat);
    if (lastCheck_ == FetchCheck::Unrecoverable) {
        // Whatever copy the cache holds was fetched from memory now
        // known corrupt beyond repair; never serve it.
        poisonSlot(flat);
        return domain_->lastError();
    }
    if (lastCheck_ == FetchCheck::Clean) {
        if (const DecodedBlock *hit = lookup(flat))
            return hit;
    } else {
        // The cached decode predates the repair (correction/refetch)
        // of this block's memory: poison it and decode the repaired
        // bytes below. The access accounts as a fill — the decode
        // really runs — so hits+fills still sum to successful
        // accesses.
        poisonSlot(flat);
    }
    // Checked even though verification passed: a weak detect-only
    // code (CRC-8 especially) can miss a multi-bit pattern, and the
    // decoder must then fail structurally, not panic.
    Result<DecodedBlock> blk = decomp_.tryDecompressBlock(
        flat / kBlocksPerGroup, flat % kBlocksPerGroup);
    if (!blk)
        return blk.error();
    return &fill(flat, *blk);
}

const DecodedBlock *
BlockFetcher::lookup(u32 flat)
{
    u32 i = map_[flat];
    if (i == kInvalid)
        return nullptr;
    if (head_ != i) {
        unlink(i);
        pushFront(i);
    }
    ++hits_;
    if (statHits_)
        statHits_->inc();
    return &slab_[i].blk;
}

const DecodedBlock &
BlockFetcher::fill(u32 flat, const DecodedBlock &blk)
{
    u32 i;
    if (live_ < slab_.size()) {
        i = live_++;
    } else {
        i = tail_;
        unlink(i);
        if (slab_[i].flat != kInvalid) // poisoned victims left no map entry
            map_[slab_[i].flat] = kInvalid;
    }
    Entry &e = slab_[i];
    e.flat = flat;
    e.blk = blk;
    map_[flat] = i;
    pushFront(i);
    ++fills_;
    if (statFills_)
        statFills_->inc();
    return e.blk;
}

void
BlockFetcher::poisonSlot(u32 flat)
{
    u32 i = map_[flat];
    if (i == kInvalid)
        return;
    unlink(i);
    Entry &e = slab_[i];
    map_[flat] = kInvalid;
    e.flat = kInvalid;
    // Park at the LRU tail: the invalidated slot is the next victim,
    // so poisoning never shrinks the effective cache.
    e.prev = tail_;
    e.next = kInvalid;
    if (tail_ != kInvalid)
        slab_[tail_].next = i;
    else
        head_ = i;
    tail_ = i;
    ++poisons_;
}

void
BlockFetcher::unlink(u32 i)
{
    Entry &e = slab_[i];
    if (e.prev != kInvalid)
        slab_[e.prev].next = e.next;
    else
        head_ = e.next;
    if (e.next != kInvalid)
        slab_[e.next].prev = e.prev;
    else
        tail_ = e.prev;
    e.prev = e.next = kInvalid;
}

void
BlockFetcher::pushFront(u32 i)
{
    Entry &e = slab_[i];
    e.prev = kInvalid;
    e.next = head_;
    if (head_ != kInvalid)
        slab_[head_].prev = i;
    head_ = i;
    if (tail_ == kInvalid)
        tail_ = i;
}

} // namespace codepack
} // namespace cps
