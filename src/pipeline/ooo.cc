#include "ooo.hh"

#include <algorithm>
#include <bit>
#include <new>
#include <optional>

#include "common/watchdog.hh"

namespace cps
{

OoOPipeline::OoOPipeline(const PipelineConfig &cfg, TraceSource &src,
                         FetchPath &fetch, DataPath &data, StatSet &stats)
    : OoOPipeline(cfg, &src, nullptr, fetch, data, stats)
{}

OoOPipeline::OoOPipeline(const PipelineConfig &cfg, Executor &exec,
                         FetchPath &fetch, DataPath &data, StatSet &stats)
    : OoOPipeline(cfg, nullptr, std::make_unique<LiveTraceSource>(exec),
                  fetch, data, stats)
{}

OoOPipeline::OoOPipeline(const PipelineConfig &cfg, TraceSource *src,
                         std::unique_ptr<LiveTraceSource> live,
                         FetchPath &fetch, DataPath &data, StatSet &stats)
    : cfg_(cfg), ownedSrc_(std::move(live)), src_(src ? *src : *ownedSrc_),
      fetch_(fetch), data_(data), frontend_(cfg.predictor, stats),
      statInsns_(stats.scalar("pipeline.insns")),
      statCycles_(stats.scalar("pipeline.cycles"))
{
    cps_assert(cfg.ruuSize >= cfg.width, "RUU smaller than machine width");
    const u64 ring = std::bit_ceil(u64{cfg.ruuSize});
    ruu_.resize(ring);
    ruuMask_ = ring - 1;
    edgeNext_.resize(ring * kEdgesPerEntry);
    const u64 store_ring = std::bit_ceil(u64{std::max(cfg.lsqSize, 1u)});
    stores_.resize(store_ring);
    storeMask_ = store_ring - 1;
    fuFree_[kFuAlu].assign(cfg.numAlu, 0);
    fuFree_[kFuMult].assign(cfg.numMult, 0);
    fuFree_[kFuMem].assign(cfg.numMemPorts, 0);
    fuFree_[kFuFpAlu].assign(cfg.numFpAlu, 0);
    fuFree_[kFuFpMult].assign(cfg.numFpMult, 0);
    regProducer_.fill(kNoSeq);
}

OoOPipeline::FuPool
OoOPipeline::poolFor(InstClass cls) const
{
    switch (cls) {
      case InstClass::IntMult:
      case InstClass::IntDiv:
        return kFuMult;
      case InstClass::Load:
      case InstClass::Store:
        return kFuMem;
      case InstClass::FpAlu:
      case InstClass::FpCvt:
        return kFuFpAlu;
      case InstClass::FpMult:
      case InstClass::FpDiv:
        return kFuFpMult;
      default:
        return kFuAlu;
    }
}

bool
OoOPipeline::nonPipelined(InstClass cls) const
{
    // Divides occupy their unit for the full latency (SimpleScalar's
    // default issue rates); everything else is fully pipelined.
    return cls == InstClass::IntDiv || cls == InstClass::FpDiv;
}

void
OoOPipeline::dependOn(u32 slot, u64 seq)
{
    Entry &producer = at(seq);
    Entry &consumer = ruu_[slot];
    if (producer.issued) {
        // Its completion cycle is already known.
        consumer.readyAt = std::max(consumer.readyAt, producer.doneAt);
        return;
    }
    // Nothing wakes the consumer while it is being dispatched, so its
    // pending count is the number of its edges in use.
    const u32 edge = slot * kEdgesPerEntry + consumer.pending++;
    edgeNext_[edge] = producer.wakeHead;
    producer.wakeHead = edge;
}

RunResult
OoOPipeline::run(u64 max_insns)
{
    Cycle clock = 0;
    Cycle fetch_blocked_until = 0;
    u64 retired = 0;
    bool exited = false;
    std::optional<StepRecord> pending;

    headSeq_ = tailSeq_ = 0;
    unissuedHead_ = unissuedTail_ = kNil;
    storeHead_ = storeTail_ = 0;
    lsqCount_ = 0;
    regProducer_.fill(kNoSeq);

    auto ruu_empty = [&] { return headSeq_ == tailSeq_; };
    auto ruu_full = [&] { return tailSeq_ - headSeq_ == cfg_.ruuSize; };

    // Livelock guard: the deadlock assert below catches a cycle that
    // cannot advance, but a bug where the clock advances forever with
    // nothing ever committing would spin silently. The watchdog turns
    // that into a structured, deterministic abort.
    ProgressWatchdog watchdog(cfg_.watchdogInterval,
                              cfg_.watchdogStallLimit);
    bool stalled = false;

    // Fires at the same commit-stage instant a serial run of
    // warmupInsns instructions would stop at, so cyclesAtGate equals
    // that shorter run's result exactly (the chunk engine's
    // telescoping identity).
    auto fireGate = [&] {
        gate_->fired = true;
        gate_->cyclesAtGate = clock;
        gate_->insnsAtGate = retired;
        if (gate_->onGate)
            gate_->onGate();
    };
    if (gate_ && !gate_->fired && gate_->warmupInsns == 0)
        fireGate();

    while (retired < max_insns) {
        if (watchdog.tick(retired)) {
            stalled = true;
            break;
        }
        bool progress = false;

        // ------------------------------------------------------- commit
        unsigned committed = 0;
        while (committed < cfg_.width && !ruu_empty()) {
            Entry &e = at(headSeq_);
            if (!e.issued || e.doneAt >= clock)
                break;
            if (trace_) {
                OooTraceEntry t;
                t.pc = e.pc;
                t.inst = *e.inst;
                t.fetchedAt = e.fetchedAt;
                t.issuedAt = e.issuedAt;
                t.doneAt = e.doneAt;
                t.committedAt = clock;
                trace_->push_back(t);
            }
            if (e.info->cls == InstClass::Store) {
                // Stores update the cache at commit; the write buffer
                // hides the latency from the core. This is the oldest
                // in-flight store, so it leaves the store FIFO.
                data_.access(e.memAddr, true, clock);
                ++storeHead_;
            }
            if (e.info->isMem)
                --lsqCount_;
            ++headSeq_;
            ++retired;
            ++committed;
            progress = true;
            if (gate_ && !gate_->fired && retired >= gate_->warmupInsns)
                fireGate();
            if (retired >= max_insns)
                break;
        }
        if (retired >= max_insns)
            break;

        // -------------------------------------------------------- issue
        // Oldest first over the unissued entries only. An entry is ready
        // once all its producers have issued (pending == 0) and the
        // latest of their results has arrived (readyAt <= clock).
        unsigned issued = 0;
        u32 prev = kNil;
        u32 *link = &unissuedHead_;
        while (*link != kNil && issued < cfg_.width) {
            const u32 slot = *link;
            Entry &e = ruu_[slot];
            if (e.pending != 0 || e.readyAt > clock) {
                prev = slot;
                link = &e.nextUnissued;
                continue;
            }

            // Function-unit availability.
            FuPool pool = poolFor(e.info->cls);
            Cycle *unit = nullptr;
            for (Cycle &f : fuFree_[pool]) {
                if (f <= clock) {
                    unit = &f;
                    break;
                }
            }
            if (!unit) {
                prev = slot;
                link = &e.nextUnissued;
                continue;
            }

            *link = e.nextUnissued; // off the unissued list
            if (unissuedTail_ == slot)
                unissuedTail_ = prev;
            e.issued = true;
            e.issuedAt = clock;
            ++issued;
            progress = true;
            unsigned latency = e.info->latency;
            if (e.info->cls == InstClass::Load) {
                e.doneAt = data_.access(e.memAddr, false, clock);
            } else if (e.info->cls == InstClass::Store) {
                e.doneAt = clock + 1; // address + data into the LSQ
            } else {
                e.doneAt = clock + latency;
            }
            *unit = nonPipelined(e.info->cls) ? clock + latency : clock + 1;

            // Wake the consumers. Every doneAt is past this cycle, so
            // none of them becomes ready before the next one.
            for (u32 edge = e.wakeHead; edge != kNil; edge = edgeNext_[edge]) {
                Entry &c = ruu_[edge / kEdgesPerEntry];
                c.readyAt = std::max(c.readyAt, e.doneAt);
                --c.pending;
            }

            if (e.mispredict) {
                // Between now and resolution, fetch runs down the wrong
                // path (cache pollution + memory-channel occupancy).
                simulateWrongPath(fetch_, e.wrongPath,
                                  src_.text().base(), src_.text().end(),
                                  clock + 1, e.doneAt, cfg_.width);
                // The redirect reaches fetch the cycle after resolution,
                // plus front-end refill.
                fetch_blocked_until = e.doneAt + 1 + cfg_.mispredictExtra;
            }
            if (e.serialize)
                fetch_blocked_until = e.doneAt + 1;
        }

        // ----------------------------------------------- fetch/dispatch
        unsigned fetched = 0;
        while (clock >= fetch_blocked_until && fetched < cfg_.width) {
            if (!pending) {
                if (src_.halted()) {
                    exited = true;
                    break;
                }
                pending = src_.step();
            }
            if (ruu_full())
                break;
            const InstInfo &info = *pending->info;
            if (info.isMem && lsqCount_ >= cfg_.lsqSize)
                break;
            if (info.cls == InstClass::Syscall && !ruu_empty())
                break; // drain before a serialising op

            Cycle avail = fetch_.fetchWord(pending->pc, clock);
            if (avail > clock) {
                fetch_blocked_until = avail;
                break;
            }

            // Dispatch into the RUU.
            const u64 seq = tailSeq_++;
            const u32 slot = static_cast<u32>(seq & ruuMask_);
            Entry &e = ruu_[slot];
            // Built in place: assigning Entry{} would construct a
            // temporary and block-copy it, a measurable share of the loop.
            new (&e) Entry;
            e.pc = pending->pc;
            e.info = pending->info;
            e.inst = pending->inst;
            e.fetchedAt = clock;
            e.memAddr = pending->memAddr;
            if (unissuedTail_ == kNil)
                unissuedHead_ = slot;
            else
                ruu_[unissuedTail_].nextUnissued = slot;
            unissuedTail_ = slot;

            auto bind = [&](int reg) {
                if (reg == kRegNone)
                    return;
                u64 p = regProducer_[reg];
                if (p != kNoSeq && p >= headSeq_)
                    dependOn(slot, p);
            };
            bind(info.src1);
            bind(info.src2);
            bind(info.src3);
            if (info.dest != kRegNone)
                regProducer_[info.dest] = seq;

            if (info.isMem) {
                ++lsqCount_;
                const Addr word = pending->memAddr >> 2;
                if (info.cls == InstClass::Load) {
                    // Memory-order dependence on the youngest older
                    // store to the same word still in flight.
                    for (u64 i = storeTail_; i != storeHead_;) {
                        const InflightStore &st = stores_[--i & storeMask_];
                        if (st.word == word) {
                            dependOn(slot, st.seq);
                            break;
                        }
                    }
                } else {
                    stores_[storeTail_++ & storeMask_] = {seq, word};
                }
            }

            bool is_control = info.isControl;
            StepRecord rec = *pending;
            pending.reset();
            ++fetched;
            progress = true;

            if (info.cls == InstClass::Syscall) {
                e.serialize = true;
                fetch_blocked_until = kCycleNever;
                break;
            }
            if (is_control) {
                ControlOutcome out = frontend_.handleControl(rec);
                if (out.mispredict) {
                    e.mispredict = true;
                    e.wrongPath = out.wrongPath;
                    fetch_blocked_until = kCycleNever; // until resolve
                    break;
                }
                if (out.minorBubble) {
                    fetch_blocked_until = clock + 2;
                    break;
                }
                if (rec.taken) {
                    // Cannot fetch past a taken branch in the same cycle.
                    fetch_blocked_until = clock + 1;
                    break;
                }
            }
        }

        // --------------------------------------------- termination test
        if (ruu_empty() && !pending && src_.halted()) {
            exited = true;
            break;
        }

        // -------------------------------------------------------- clock
        if (progress) {
            ++clock;
        } else {
            // Nothing moved: jump to the next event.
            Cycle next = kCycleNever;
            bool have_unissued = false;
            for (u64 seq = headSeq_; seq < tailSeq_; ++seq) {
                const Entry &e = at(seq);
                if (e.issued)
                    next = std::min(next, e.doneAt);
                else
                    have_unissued = true;
            }
            if (have_unissued) {
                // An unissued op may be waiting on a non-pipelined unit.
                for (const auto &pool : fuFree_) {
                    for (Cycle f : pool) {
                        if (f > clock)
                            next = std::min(next, f);
                    }
                }
            }
            if (fetch_blocked_until != kCycleNever &&
                (pending || !src_.halted()) && !ruu_full()) {
                next = std::min(next, fetch_blocked_until);
            }
            cps_assert(next != kCycleNever,
                       "pipeline deadlock at cycle %llu (ruu %llu..%llu)",
                       static_cast<unsigned long long>(clock),
                       static_cast<unsigned long long>(headSeq_),
                       static_cast<unsigned long long>(tailSeq_));
            clock = std::max(clock + 1, next);
        }
    }

    RunResult res;
    res.instructions = retired;
    res.cycles = clock;
    res.programExited = exited;
    if (stalled) {
        res.status = RunStatus::Stalled;
        res.statusDetail = strfmt(
            "no instruction retired for %u watchdog checks "
            "(%llu iterations each) at cycle %llu, %llu retired",
            watchdog.stalledChecks(),
            static_cast<unsigned long long>(cfg_.watchdogInterval),
            static_cast<unsigned long long>(clock),
            static_cast<unsigned long long>(retired));
    }
    statInsns_.set(retired);
    statCycles_.set(clock);
    return res;
}

} // namespace cps
