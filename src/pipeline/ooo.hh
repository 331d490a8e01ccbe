/**
 * @file
 * The RUU-based out-of-order pipeline model (paper Table 2, "4-issue" and
 * "8-issue").
 *
 * This follows SimpleScalar's sim-outorder structure: a unified Register
 * Update Unit (reorder buffer + reservation stations), a load/store
 * queue, per-class function-unit pools, W-wide fetch/issue/commit, and a
 * front end with the paper's direction predictors. The model is
 * timing-directed: the functional executor (or a replayed trace)
 * supplies the correct-path instruction stream. When a mispredicted
 * branch issues, simulateWrongPath() fetches down the predicted path
 * until the branch resolves; those fetches fill and pollute the I-cache
 * (and, under CodePack, the decompressor's buffers) and occupy the memory
 * channel, but never enter the RUU. Correct-path fetch resumes the cycle
 * after resolution plus the front-end refill penalty.
 *
 * Issue is event-driven, like sim-outorder's output-dependence chains,
 * except that a producer wakes its consumers when it issues (its
 * completion cycle is known then) rather than when it writes back. At
 * dispatch each source operand whose producer is still in flight either
 * folds the producer's doneAt into the consumer's readyAt (producer
 * already issued) or links the consumer onto the producer's wakeup list
 * and raises the consumer's pending count. A load links the same way to
 * the youngest in-flight store to its word. When a producer issues it
 * walks its list, raising each consumer's readyAt to its own doneAt and
 * decrementing pending. The issue stage walks only the program-ordered
 * list of unissued entries and issues, oldest first, up to W whose
 * pending count is zero and whose readyAt has passed, subject to a free
 * function unit. Every latency is at least one cycle, so a wakeup never
 * makes a consumer ready in the cycle its producer issues.
 *
 * Cycle phases: commit -> issue -> fetch/dispatch, then the clock
 * advances (skipping provably idle cycles).
 */

#ifndef CPS_PIPELINE_OOO_HH
#define CPS_PIPELINE_OOO_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "config.hh"
#include "core/trace.hh"
#include "frontend.hh"
#include "inorder.hh"
#include "paths.hh"

namespace cps
{

/** Per-instruction out-of-order timing record (optional tracing). */
struct OooTraceEntry
{
    Addr pc = 0;
    Inst inst;
    Cycle fetchedAt = 0;   ///< cycle the op entered the RUU
    Cycle issuedAt = 0;    ///< cycle it began execution
    Cycle doneAt = 0;      ///< cycle its result was produced
    Cycle committedAt = 0; ///< cycle it retired
};

/** Out-of-order superscalar timing model. */
class OoOPipeline
{
  public:
    /** Drives an arbitrary instruction stream (live or replayed). */
    OoOPipeline(const PipelineConfig &cfg, TraceSource &src,
                FetchPath &fetch, DataPath &data, StatSet &stats);

    /** Convenience: drives @p exec through an owned live source. */
    OoOPipeline(const PipelineConfig &cfg, Executor &exec, FetchPath &fetch,
                DataPath &data, StatSet &stats);

    /** Runs until @p max_insns instructions commit or the program exits. */
    RunResult run(u64 max_insns);

    /** Streams per-instruction timing into @p sink while running (must
     *  outlive the run). Pass nullptr to disable. */
    void setTraceSink(std::vector<OooTraceEntry> *sink) { trace_ = sink; }

    /**
     * Arms a warm-up gate for the next run (chunk-parallel engine):
     * fires in the commit stage the moment gate->warmupInsns
     * instructions have retired. Pass nullptr to disable. The gate
     * must outlive the run.
     */
    void setWarmupGate(WarmupGate *gate) { gate_ = gate; }

  private:
    /** The one set-up path: @p src when given, else the owned @p live. */
    OoOPipeline(const PipelineConfig &cfg, TraceSource *src,
                std::unique_ptr<LiveTraceSource> live, FetchPath &fetch,
                DataPath &data, StatSet &stats);

    std::vector<OooTraceEntry> *trace_ = nullptr;
    WarmupGate *gate_ = nullptr;
    /** Function-unit pools, indexed by FuPool. */
    enum FuPool : unsigned
    {
        kFuAlu = 0,
        kFuMult,
        kFuMem,
        kFuFpAlu,
        kFuFpMult,
        kNumFuPools,
    };

    static constexpr u64 kNoSeq = ~static_cast<u64>(0);
    /** End of a ring-slot or wakeup-edge list. */
    static constexpr u32 kNil = ~static_cast<u32>(0);
    /**
     * Wakeup edges an entry can wait on: its three register sources
     * and, for a load, the youngest older store to the same word. Edge
     * id slot * kEdgesPerEntry + k belongs to the consumer in @c slot.
     */
    static constexpr u32 kEdgesPerEntry = 4;

    struct Entry
    {
        Cycle readyAt = 0;       ///< latest doneAt of issued producers
        u32 pending = 0;         ///< producers that have not issued yet
        u32 nextUnissued = kNil; ///< unissued list, program order
        u32 wakeHead = kNil;     ///< first edge of its consumers' list
        Addr pc = 0;
        const InstInfo *info = nullptr;
        const Inst *inst = nullptr; ///< in the decoded text, for tracing
        Cycle fetchedAt = 0;        ///< dispatch cycle, for tracing
        Cycle issuedAt = 0;         ///< issue cycle, for tracing
        Addr memAddr = 0;
        bool issued = false;
        Cycle doneAt = kCycleNever;
        bool mispredict = false; ///< resolving this entry restarts fetch
        Addr wrongPath = kAddrInvalid; ///< where fetch runs until resolve
        bool serialize = false;  ///< syscall: drain before/after
    };

    /** A dispatched store that has not committed yet. */
    struct InflightStore
    {
        u64 seq = 0;
        Addr word = 0; ///< memAddr >> 2
    };

    Entry &at(u64 seq) { return ruu_[seq & ruuMask_]; }

    /** Makes the entry in @p slot wait for in-flight producer @p seq. */
    void dependOn(u32 slot, u64 seq);
    FuPool poolFor(InstClass cls) const;
    bool nonPipelined(InstClass cls) const;

    PipelineConfig cfg_;
    std::unique_ptr<LiveTraceSource> ownedSrc_; ///< Executor-ctor wrapper
    TraceSource &src_;
    FetchPath &fetch_;
    DataPath &data_;
    FrontEnd frontend_;
    Counter &statInsns_;
    Counter &statCycles_;

    /** The RUU ring: ruuSize rounded up to a power of two, indexed by
     *  sequence number & ruuMask_; at most cfg_.ruuSize are live. */
    std::vector<Entry> ruu_;
    u64 ruuMask_ = 0;
    u64 headSeq_ = 0;
    u64 tailSeq_ = 0;
    /** Unissued entries, oldest first: ring slots linked through
     *  Entry::nextUnissued. */
    u32 unissuedHead_ = kNil;
    u32 unissuedTail_ = kNil;
    /** Next edge in a producer's wakeup list, indexed by edge id. */
    std::vector<u32> edgeNext_;
    /** FIFO of in-flight stores, oldest at storeHead_ (ring with
     *  storeMask_; at most lsqSize live). */
    std::vector<InflightStore> stores_;
    u64 storeMask_ = 0;
    u64 storeHead_ = 0;
    u64 storeTail_ = 0;
    unsigned lsqCount_ = 0;
    std::vector<Cycle> fuFree_[kNumFuPools];
    std::array<u64, kNumUnifiedRegs> regProducer_{};
};

} // namespace cps

#endif // CPS_PIPELINE_OOO_HH
