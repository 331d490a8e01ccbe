/**
 * @file
 * Trace-once / replay-many execution.
 *
 * Every timed run of the same benchmark retires the same architected
 * instruction stream — the machine configuration changes only *when*
 * instructions move, never *which* instructions move. A full experiment
 * matrix (Table 5 runs each benchmark under 9+ configurations) therefore
 * re-executes the functional core N times for identical answers.
 *
 * This component batches that work: one functional pass records each
 * retired instruction in 8 bytes (its word index, flags and memory
 * address; pc and nextPc follow from the walk, see TraceBuffer), and any
 * number of timing runs replay the immutable buffer instead of driving
 * the Executor. On disk (encodeTrace) an entry is delta-coded against
 * the one before it and takes under two bytes. Both pipelines consume
 * the stream through the TraceSource interface, so live and replayed
 * runs are cycle-for-cycle identical by construction (test_trace_replay
 * asserts it stat-for-stat).
 *
 * Thread safety: a TraceBuffer is immutable after recording; publishing
 * it under a lock (harness::Suite does) makes concurrent replays safe.
 */

#ifndef CPS_CORE_TRACE_HH
#define CPS_CORE_TRACE_HH

#include <vector>

#include "common/result.hh"
#include "executor.hh"

namespace cps
{

/**
 * One retired instruction as TraceBuffer::entry() reports it, 16 bytes.
 * The decoded Inst/InstInfo are not stored: the word index recovers both
 * from the (shared, read-only) DecodedText at replay time.
 */
struct TraceEntry
{
    Addr pc = 0;
    Addr nextPc = 0;
    Addr memAddr = 0; ///< effective address when the op is a memory op
    /** Text word index << 2 | halted << 1 | taken. */
    u32 meta = 0;

    static constexpr u32 kTakenBit = 1u;
    static constexpr u32 kHaltedBit = 2u;

    u32 wordIndex() const { return meta >> 2; }
    bool taken() const { return (meta & kTakenBit) != 0; }
    bool halted() const { return (meta & kHaltedBit) != 0; }
};

static_assert(sizeof(TraceEntry) == 16, "TraceEntry must stay compact");
static_assert(std::is_trivially_copyable_v<TraceEntry>,
              "TraceEntry must be POD");

/**
 * An immutable (after recording) sequence of retired instructions.
 *
 * A recorded trace is a walk through its program's text: every pc is the
 * text base plus 4 x its word index, and every nextPc but the last is
 * the next entry's pc. So an entry keeps only its meta word and memory
 * address, 8 bytes; entry() derives pc and nextPc, and the buffer keeps
 * the text base and the last entry's nextPc.
 */
class TraceBuffer
{
  public:
    /**
     * Appends the record of one executed instruction. The first sets
     * the text base; each later one must continue the walk (its pc is
     * the previous nextPc), and every pc must lie a whole number of
     * words past the base.
     */
    void
    append(const StepRecord &rec, Addr text_base)
    {
        if (entries_.empty())
            base_ = text_base;
        cps_assert(((rec.pc - base_) & 3) == 0 &&
                       (entries_.empty() || rec.pc == lastNextPc_),
                   "trace entry %zu at pc 0x%08x does not continue the "
                   "walk (expected 0x%08x, text base 0x%08x)",
                   entries_.size(), rec.pc, lastNextPc_, base_);
        entries_.push_back(
            Packed{(rec.pc - base_) | (rec.taken ? TraceEntry::kTakenBit : 0) |
                       (rec.halted ? TraceEntry::kHaltedBit : 0),
                   rec.memAddr});
        lastNextPc_ = rec.nextPc;
    }

    /** Marks that the trace ends because the program exited. */
    void markComplete() { complete_ = true; }

    size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /** Entry @p i, unpacked (O(1)). */
    TraceEntry
    entry(size_t i) const
    {
        const Packed &p = entries_[i];
        TraceEntry e;
        e.pc = pcOf(p);
        e.nextPc = i + 1 < entries_.size() ? pcOf(entries_[i + 1])
                                           : lastNextPc_;
        e.memAddr = p.memAddr;
        e.meta = p.meta;
        return e;
    }

    /** The first entry's pc less 4 x its word index; 0 when empty. */
    Addr textBase() const { return base_; }

    /** True when the recorded program halted within the recording cap. */
    bool complete() const { return complete_; }

    /**
     * True when a replayed run that retires up to @p max_insns
     * instructions can never read past the end of the buffer.
     * @param lookahead functional steps a pipeline may consume beyond
     *        the retired count (OoO fetch-ahead: RUU depth + 1)
     */
    bool
    covers(u64 max_insns, u64 lookahead) const
    {
        return complete_ || entries_.size() >= max_insns + lookahead;
    }

    void reserve(size_t n) { entries_.reserve(n); }

  private:
    /** Decodes straight into the packed entries. */
    friend Result<TraceBuffer> decodeTraceChecked(const std::vector<u8> &);

    /** What an entry keeps: TraceEntry::meta and memAddr. */
    struct Packed
    {
        u32 meta;
        Addr memAddr;
    };

    /** meta's index bits are 4 x the word index, in place. */
    Addr pcOf(const Packed &p) const { return base_ + (p.meta & ~3u); }

    std::vector<Packed> entries_;
    Addr base_ = 0;
    Addr lastNextPc_ = 0;
    bool complete_ = false;
};

/**
 * The instruction stream a timing pipeline consumes: either a live
 * Executor or a pre-recorded trace. Mirrors the three Executor calls the
 * pipelines make, no more.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** True once the program has exited. */
    virtual bool halted() const = 0;

    /** Produces the next retired instruction. */
    virtual StepRecord step() = 0;

    /** The decoded text the stream runs over (wrong-path bounds). */
    virtual const DecodedText &text() const = 0;
};

/** Live source: each step() functionally executes one instruction. */
class LiveTraceSource final : public TraceSource
{
  public:
    explicit LiveTraceSource(Executor &exec) : exec_(exec) {}

    bool halted() const override { return exec_.halted(); }
    StepRecord step() override { return exec_.step(); }
    const DecodedText &text() const override { return exec_.text(); }

  private:
    Executor &exec_;
};

/**
 * Replay source: step() streams pre-recorded entries, rebuilding each
 * StepRecord from the trace and the decoded text. The caller must have
 * checked TraceBuffer::covers() for its run length; stepping past the
 * end of a truncated trace is a harness bug and panics.
 */
class TraceReplaySource final : public TraceSource
{
  public:
    /**
     * @param trace recorded stream (must outlive the source)
     * @param text decoded text of the same program the trace was
     *        recorded from (indices must agree)
     */
    TraceReplaySource(const TraceBuffer &trace, const DecodedText &text)
        : trace_(trace), text_(text)
    {}

    bool halted() const override { return halted_; }

    StepRecord
    step() override
    {
        cps_assert(cursor_ < trace_.size(),
                   "replay ran past the end of a truncated trace "
                   "(%zu entries)", trace_.size());
        const TraceEntry e = trace_.entry(cursor_++);
        size_t idx = e.wordIndex();
        StepRecord rec;
        rec.pc = e.pc;
        rec.inst = &text_.instAt(idx);
        rec.info = &text_.infoAt(idx);
        rec.nextPc = e.nextPc;
        rec.taken = e.taken();
        rec.memAddr = e.memAddr;
        rec.halted = e.halted();
        halted_ = rec.halted;
        return rec;
    }

    const DecodedText &text() const override { return text_; }

    /** Restarts the stream from the first entry. */
    void
    rewind()
    {
        cursor_ = 0;
        halted_ = false;
    }

  private:
    const TraceBuffer &trace_;
    const DecodedText &text_;
    size_t cursor_ = 0;
    bool halted_ = false;
};

/**
 * Runs @p prog functionally (a fresh Executor over a fresh memory, the
 * same initial state every Machine builds) and records up to
 * @p max_entries retired instructions. The result is complete() when the
 * program exited within the cap; otherwise it is truncated and only
 * covers() shorter timed runs.
 */
TraceBuffer recordTrace(const Program &prog, u64 max_entries);

/**
 * Serializes @p trace for the on-disk artifact cache (little-endian:
 * magic "CPSTRC2", entry count, completeness flag, text base, one
 * delta-coded entry of 1-19 bytes per instruction, then a CRC-32 over
 * everything before it; trace_io.cc documents the entry coding). Each
 * entry is a tag byte plus only the fields its predecessor does not
 * imply, so recorded traces take under two bytes per entry.
 */
std::vector<u8> encodeTrace(const TraceBuffer &trace);

/**
 * Checked inverse of encodeTrace. Cached traces are untrusted input
 * (another process wrote them; the disk may have corrupted them), so
 * rejection is a structured DecodeError carrying its byte offset. The
 * CRC runs first; the declared entry count is validated against the
 * bytes present (at least one per entry) before anything is allocated;
 * unknown tag bits, truncated or overlong varints, fields stored where
 * they were implied and trailing bytes are all rejected, so whatever
 * decodes re-encodes to the same bytes.
 */
Result<TraceBuffer> decodeTraceChecked(const std::vector<u8> &bytes);

} // namespace cps

#endif // CPS_CORE_TRACE_HH
