/**
 * @file
 * Main-memory model: a sparse functional backing store plus the bus
 * timing model of the paper's Table 2 ("memory latency: 10 cycle latency,
 * 2 cycle rate; memory width 64 bits").
 *
 * The timing side models a single memory channel: a burst transaction
 * occupies the channel from its (arbitrated) start until its last beat.
 * The first beat arrives @c firstAccess cycles after the start and each
 * subsequent beat @c beatRate cycles after the previous one. Both the
 * native cache-fill path and the CodePack decompressor issue bursts
 * through the same channel, so index fetches, code fetches and D-cache
 * fills contend naturally.
 */

#ifndef CPS_MEM_MAIN_MEMORY_HH
#define CPS_MEM_MAIN_MEMORY_HH

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "asmkit/program.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cps
{

/** Bus/DRAM timing parameters (paper Table 2 defaults). */
struct MemTimingConfig
{
    unsigned busWidthBits = 64; ///< 16, 32, 64 or 128 in the paper
    Cycle firstAccess = 10;     ///< cycles until the first beat arrives
    Cycle beatRate = 2;         ///< cycles between subsequent beats

    unsigned busBytes() const { return busWidthBits / 8; }
};

/** Timing of one burst transaction. */
struct BurstResult
{
    Cycle start = 0;                ///< cycle the transaction was granted
    std::vector<Cycle> beatArrival; ///< arrival cycle of each beat
    Cycle done = 0;                 ///< arrival of the final beat

    /** Arrival time of the beat containing byte @p offset of the burst. */
    Cycle
    arrivalOfByte(unsigned offset, unsigned bus_bytes) const
    {
        unsigned beat = offset / bus_bytes;
        cps_assert(beat < beatArrival.size(), "byte beyond burst");
        return beatArrival[beat];
    }
};

/**
 * Functional sparse memory plus channel timing.
 *
 * Functional accesses (read/write) are free; they are used by the
 * loader, the functional executor, and the decompressor to obtain data.
 * Timing is modelled separately through burstRead()/singleRead(), which
 * advance the channel-busy horizon.
 */
class MainMemory
{
  public:
    explicit MainMemory(const MemTimingConfig &cfg = MemTimingConfig{})
        : cfg_(cfg)
    {}

    // ------------------------------------------------------------ timing

    const MemTimingConfig &timing() const { return cfg_; }
    void setTiming(const MemTimingConfig &cfg) { cfg_ = cfg; }

    /**
     * Performs a timed burst read of @p bytes starting at cycle @p now.
     * @return per-beat arrival times after channel arbitration
     */
    BurstResult
    burstRead(Cycle now, unsigned bytes)
    {
        cps_assert(bytes > 0, "zero-length burst");
        BurstResult r;
        r.start = std::max(now, busyUntil_);
        unsigned beats =
            static_cast<unsigned>(divCeil(bytes, cfg_.busBytes()));
        r.beatArrival.reserve(beats);
        for (unsigned b = 0; b < beats; ++b)
            r.beatArrival.push_back(r.start + cfg_.firstAccess +
                                    b * cfg_.beatRate);
        r.done = r.beatArrival.back();
        busyUntil_ = r.done;
        ++numBursts_;
        numBeats_ += beats;
        return r;
    }

    /** A single-beat timed access (e.g. one index-table entry). */
    BurstResult singleRead(Cycle now) { return burstRead(now, 1); }

    /**
     * A timed write burst (D-cache write-back). The writer does not wait
     * for completion; the channel is simply occupied.
     */
    Cycle
    burstWrite(Cycle now, unsigned bytes)
    {
        BurstResult r = burstRead(now, bytes);
        return r.done;
    }

    /** First cycle at which a new transaction could start. */
    Cycle busyUntil() const { return busyUntil_; }

    /** Resets timing state (not contents). */
    void
    resetTimingState()
    {
        busyUntil_ = 0;
        numBursts_ = 0;
        numBeats_ = 0;
    }

    u64 numBursts() const { return numBursts_; }
    u64 numBeats() const { return numBeats_; }

    // -------------------------------------------------------- functional

    u8
    read8(Addr addr) const
    {
        const Page *p = findPage(addr);
        return p ? (*p)[addr & kPageMask] : 0;
    }

    u16
    read16(Addr addr) const
    {
        return static_cast<u16>(read8(addr)) |
               (static_cast<u16>(read8(addr + 1)) << 8);
    }

    u32
    read32(Addr addr) const
    {
        return static_cast<u32>(read16(addr)) |
               (static_cast<u32>(read16(addr + 2)) << 16);
    }

    void
    write8(Addr addr, u8 value)
    {
        page(addr)[addr & kPageMask] = value;
    }

    void
    write16(Addr addr, u16 value)
    {
        write8(addr, static_cast<u8>(value));
        write8(addr + 1, static_cast<u8>(value >> 8));
    }

    void
    write32(Addr addr, u32 value)
    {
        write16(addr, static_cast<u16>(value));
        write16(addr + 2, static_cast<u16>(value >> 16));
    }

    /** Copies a program segment into memory. */
    void loadSegment(const Segment &seg) { loadBytes(seg.base, seg.bytes); }

    /** Copies a raw byte vector to @p base, one page lookup per page. */
    void
    loadBytes(Addr base, const std::vector<u8> &bytes)
    {
        size_t done = 0;
        while (done < bytes.size()) {
            Addr addr = base + static_cast<Addr>(done);
            size_t offset = addr & kPageMask;
            size_t n = std::min(bytes.size() - done, kPageBytes - offset);
            std::memcpy(page(addr).data() + offset, bytes.data() + done, n);
            done += n;
        }
    }

  private:
    static constexpr unsigned kPageBits = 12;
    static constexpr size_t kPageBytes = size_t{1} << kPageBits;
    static constexpr Addr kPageMask = kPageBytes - 1;

    using Page = std::vector<u8>;

    const Page *
    findPage(Addr addr) const
    {
        auto it = pages_.find(addr >> kPageBits);
        return it == pages_.end() ? nullptr : &it->second;
    }

    Page &
    page(Addr addr)
    {
        Page &p = pages_[addr >> kPageBits];
        if (p.empty())
            p.resize(kPageBytes, 0);
        return p;
    }

    MemTimingConfig cfg_;
    Cycle busyUntil_ = 0;
    u64 numBursts_ = 0;
    u64 numBeats_ = 0;
    std::unordered_map<u32, Page> pages_;
};

} // namespace cps

#endif // CPS_MEM_MAIN_MEMORY_HH
