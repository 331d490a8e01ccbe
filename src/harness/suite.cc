#include "suite.hh"

#include "asmkit/objfile.hh"
#include "codepack/imagefile.hh"
#include "common/logging.hh"
#include "common/threadpool.hh"

namespace cps
{

const DecodedText &
BenchProgram::text() const
{
    std::call_once(textOnce_, [this] {
        text_ = std::make_unique<const DecodedText>(program);
    });
    return *text_;
}

Suite::Suite()
{
    for (const BenchmarkProfile &p : standardProfiles()) {
        names_.push_back(p.name);
        slots_.try_emplace(p.name);
    }
}

Suite &
Suite::instance()
{
    static Suite suite;
    return suite;
}

std::string
benchProgramKey(const BenchmarkProfile &p)
{
    // Every profile field, in declaration order, plus a generator/
    // object-format version tag: regenerating after any knob or
    // codegen change misses by construction.
    return strfmt(
        "obj1;gen1;name=%s;funcs=%u;hot=%u;blocks=%u;chunk=%u;trips=%u;"
        "calls=%u;helpers=%u;helperPct=%u;subs=%u;subInsns=%u;"
        "subPct=%u;fpPct=%u;oddPct=%u;skipPct=%u;arrays=%u;"
        "arrayBytes=%u;seed=%llu",
        p.name.c_str(), p.numFuncs, p.hotFuncs, p.blocksPerFunc,
        p.chunkInsns, p.innerTrips, p.callsPerIter, p.numHelpers,
        p.helperCallPercent, p.numSubs, p.subInsns, p.subCallPercent,
        p.fpPercent, p.oddConstPercent, p.skipPercent, p.dataArrays,
        p.dataArrayBytes, static_cast<unsigned long long>(p.seed));
}

std::string
benchImageKey(const BenchmarkProfile &p,
              const codepack::CompressorConfig &cfg)
{
    // cpi2 = the .cpi container version; enc1 = the encoder revision
    // (dictionaries + block format). Thread count is deliberately NOT
    // part of the key: the parallel encoder is byte-identical to the
    // serial one.
    return strfmt("cpi2;enc1;compressor=codepack;raw=%d;",
                  cfg.allowRawBlocks ? 1 : 0) +
           benchProgramKey(p);
}

std::string
benchTraceKey(const BenchmarkProfile &p, u64 trace_cap)
{
    // trc2 = trace container version (delta-coded entries); exe1 =
    // functional-core revision.
    return strfmt("trc2;exe1;cap=%llu;",
                  static_cast<unsigned long long>(trace_cap)) +
           benchProgramKey(p);
}

std::unique_ptr<BenchProgram>
buildBenchProgram(const BenchmarkProfile &profile,
                  const ArtifactCache &cache, u64 trace_cap)
{
    if (trace_cap == 0)
        trace_cap = Suite::traceInsns();

    auto bench = std::make_unique<BenchProgram>();
    bench->profile = &profile;

    // Program: the envelope CRC is the only integrity layer object
    // files need (decodeProgram rejects structural damage).
    const std::string prog_key = benchProgramKey(*bench->profile);
    bool have_prog = false;
    if (auto bytes = cache.load(prog_key)) {
        if (auto prog = decodeProgram(*bytes)) {
            bench->program = std::move(*prog);
            have_prog = true;
        }
    }
    if (!have_prog) {
        bench->program = generateProgram(*bench->profile);
        cache.store(prog_key, encodeProgram(bench->program));
    }

    // Compressed image: .cpi v2 carries per-section CRCs, so a cached
    // image is verified twice (envelope, then sections). Any mismatch
    // falls back to recompression — a corrupt cache costs time, never
    // output.
    const std::string img_key =
        benchImageKey(*bench->profile, codepack::CompressorConfig{});
    bool have_img = false;
    if (auto bytes = cache.load(img_key)) {
        if (Result<codepack::CompressedImage> img =
                codepack::decodeImageChecked(*bytes)) {
            bench->image = std::move(*img);
            have_img = true;
        }
    }
    if (!have_img) {
        bench->image = codepack::compress(bench->program);
        cache.store(img_key, codepack::encodeImage(bench->image));
    }

    // Trace once (or load the one an earlier run recorded); every
    // machine configuration replays the same immutable buffer
    // (published by the caller's once-flag, so cross-thread reads are
    // safe).
    if (trace_cap > 0) {
        const std::string trace_key =
            benchTraceKey(*bench->profile, trace_cap);
        if (auto bytes = cache.load(trace_key)) {
            if (Result<TraceBuffer> trace = decodeTraceChecked(*bytes))
                bench->trace = std::make_unique<const TraceBuffer>(
                    std::move(*trace));
        }
        if (!bench->trace) {
            TraceBuffer trace =
                recordTrace(bench->program, trace_cap);
            cache.store(trace_key, encodeTrace(trace));
            bench->trace =
                std::make_unique<const TraceBuffer>(std::move(trace));
        }
    }
    return bench;
}

const BenchProgram &
Suite::get(const std::string &name)
{
    auto it = slots_.find(name);
    if (it == slots_.end())
        cps_fatal("unknown benchmark '%s'", name.c_str());
    Slot &slot = it->second;
    std::call_once(slot.once, [&] {
        slot.bench = buildBenchProgram(findProfile(name),
                                       ArtifactCache::instance());
    });
    return *slot.bench;
}

void
Suite::pregenerate(unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    if (threads <= 1 || names_.size() <= 1) {
        for (const std::string &name : names_)
            get(name);
        return;
    }
    // call_once makes repeat builds free and races harmless, so the
    // fan-out just asks for everything.
    ThreadPool pool(threads);
    pool.parallelFor(names_.size(),
                     [&](size_t i) { get(names_[i]); });
}

namespace
{

/** Cap on CPS_INSNS and CPS_TRACE_INSNS: far past any run length this
 *  simulator is used at, and low enough that traceInsns()'s slack can
 *  never wrap. */
constexpr u64 kMaxInsnsKnob = u64{1} << 40;

} // namespace

u64
Suite::runInsns()
{
    static const u64 cached =
        envUnsigned("CPS_INSNS", 1000000, 1, kMaxInsnsKnob);
    return cached;
}

u64
Suite::traceInsns()
{
    static const u64 cached = envUnsigned(
        "CPS_TRACE_INSNS", runInsns() + kFetchAheadSlack, 0, kMaxInsnsKnob);
    return cached;
}

const TraceBuffer *
replayTrace(const BenchProgram &bench, const MachineConfig &cfg,
            u64 max_insns)
{
    if (bench.trace && bench.trace->covers(max_insns, replayLookahead(cfg)))
        return bench.trace.get();
    return nullptr;
}

RunOutcome
runMachine(const BenchProgram &bench, const MachineConfig &cfg,
           u64 max_insns)
{
    Machine machine(bench.program, bench.text(), cfg,
                    cfg.codeModel == CodeModel::Native ? nullptr
                                                       : &bench.image,
                    replayTrace(bench, cfg, max_insns));
    RunOutcome out;
    out.result = machine.run(max_insns);
    out.icacheMissRate = machine.icacheMissRate();
    out.indexCacheMissRate = machine.indexCacheMissRate();
    out.icacheMisses = machine.stats().value("icache.misses");
    out.bufferHits = machine.stats().value("decomp.buffer_hits");
    out.missLatencyTotal = machine.stats().value("icache.miss_latency_total");
    return out;
}

} // namespace cps
