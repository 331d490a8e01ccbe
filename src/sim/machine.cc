#include "machine.hh"

#include "codepack_fetch.hh"
#include "common/logging.hh"

namespace cps
{

MachineConfig
baseline1Issue()
{
    MachineConfig cfg;
    cfg.name = "1-issue";
    cfg.pipeline.inOrder = true;
    cfg.pipeline.width = 1;
    cfg.pipeline.fetchQueue = 4;
    cfg.pipeline.ruuSize = 8;
    cfg.pipeline.lsqSize = 4;
    cfg.pipeline.numAlu = 1;
    cfg.pipeline.numMult = 1;
    cfg.pipeline.numMemPorts = 1;
    cfg.pipeline.numFpAlu = 1;
    cfg.pipeline.numFpMult = 1;
    cfg.pipeline.predictor = PredictorKind::Bimodal2k;
    cfg.icache = CacheConfig{8 * 1024, 32, 2};
    cfg.dcache = CacheConfig{8 * 1024, 16, 2};
    return cfg;
}

MachineConfig
baseline4Issue()
{
    MachineConfig cfg;
    cfg.name = "4-issue";
    cfg.pipeline.inOrder = false;
    cfg.pipeline.width = 4;
    cfg.pipeline.fetchQueue = 8;
    cfg.pipeline.ruuSize = 64;
    cfg.pipeline.lsqSize = 32;
    cfg.pipeline.numAlu = 4;
    cfg.pipeline.numMult = 1;
    cfg.pipeline.numMemPorts = 2;
    cfg.pipeline.numFpAlu = 4;
    cfg.pipeline.numFpMult = 1;
    cfg.pipeline.predictor = PredictorKind::Gshare14;
    cfg.icache = CacheConfig{16 * 1024, 32, 2};
    cfg.dcache = CacheConfig{16 * 1024, 16, 2};
    return cfg;
}

MachineConfig
baseline8Issue()
{
    MachineConfig cfg;
    cfg.name = "8-issue";
    cfg.pipeline.inOrder = false;
    cfg.pipeline.width = 8;
    cfg.pipeline.fetchQueue = 16;
    cfg.pipeline.ruuSize = 128;
    cfg.pipeline.lsqSize = 64;
    cfg.pipeline.numAlu = 8;
    cfg.pipeline.numMult = 1;
    cfg.pipeline.numMemPorts = 2;
    cfg.pipeline.numFpAlu = 8;
    cfg.pipeline.numFpMult = 1;
    cfg.pipeline.predictor = PredictorKind::Hybrid1k;
    cfg.icache = CacheConfig{32 * 1024, 32, 2};
    cfg.dcache = CacheConfig{32 * 1024, 16, 2};
    return cfg;
}

Machine::Machine(const Program &prog, const MachineConfig &cfg,
                 const codepack::CompressedImage *img,
                 const TraceBuffer *trace)
    : Machine(prog, nullptr, cfg, img, trace)
{}

Machine::Machine(const Program &prog, const DecodedText &text,
                 const MachineConfig &cfg,
                 const codepack::CompressedImage *img,
                 const TraceBuffer *trace)
    : Machine(prog, &text, cfg, img, trace)
{}

Machine::Machine(const Program &prog, const DecodedText *shared,
                 const MachineConfig &cfg,
                 const codepack::CompressedImage *img,
                 const TraceBuffer *trace)
    : cfg_(cfg), prog_(prog), mem_(cfg.mem),
      ownText_(shared ? nullptr : std::make_unique<const DecodedText>(prog)),
      text_(shared ? *shared : *ownText_), exec_(text_, mem_),
      replayTrace_(trace), data_(cfg.dcache, mem_, stats_)
{
    cps_assert(text_.base() == prog.text.base &&
                   text_.size() == prog.textWords(),
               "decoded text is not the program's");
    mem_.loadSegment(prog.text);
    mem_.loadSegment(prog.data);
    exec_.reset(prog);

    // The timing models see one instruction stream either way; replay
    // skips the functional re-execution the trace already did.
    if (replayTrace_)
        source_ = std::make_unique<TraceReplaySource>(*replayTrace_, text_);
    else
        source_ = std::make_unique<LiveTraceSource>(exec_);

    if (cfg.codeModel == CodeModel::Native) {
        fetch_ = std::make_unique<NativeFetchPath>(cfg.icache, mem_, stats_);
    } else if (cfg.codeModel == CodeModel::NativePrefetch) {
        fetch_ = std::make_unique<NativePrefetchFetchPath>(cfg.icache,
                                                           mem_, stats_);
    } else {
        cps_assert(img != nullptr,
                   "CodePack code models need a compressed image");
        // Images may come off disk; a structurally corrupt one is a
        // user-input problem, not a simulator bug. Reject it with a
        // diagnosis (fatal: clean exit) instead of asserting deep in
        // the fetch path later.
        if (Result<void> v = codepack::validateImage(*img); !v)
            cps_fatal("refusing corrupt compressed image: %s",
                      v.error().describe().c_str());
        if (cfg.codeModel == CodeModel::CodePackSoftware) {
            fetch_ = std::make_unique<SoftwareCodePackFetchPath>(
                cfg.icache, *img, mem_, cfg.software, stats_);
        } else {
            codepack::DecompressorConfig dcfg;
            switch (cfg.codeModel) {
              case CodeModel::CodePack:
                dcfg = codepack::DecompressorConfig{};
                break;
              case CodeModel::CodePackOptimized:
                dcfg = codepack::DecompressorConfig::optimized();
                break;
              case CodeModel::CodePackCustom:
                dcfg = cfg.decomp;
                break;
              default:
                cps_panic("unreachable code model");
            }
            fetch_ = std::make_unique<CodePackFetchPath>(
                cfg.icache, *img, mem_, dcfg, stats_);
        }
    }

    if (cfg.pipeline.inOrder) {
        inorder_ = std::make_unique<InOrderPipeline>(
            cfg.pipeline, *source_, *fetch_, data_, stats_);
    } else {
        ooo_ = std::make_unique<OoOPipeline>(cfg.pipeline, *source_,
                                             *fetch_, data_, stats_);
    }
}

RunResult
Machine::run(u64 max_insns)
{
    cps_assert(!replayTrace_ ||
                   replayTrace_->covers(max_insns, replayLookahead(cfg_)),
               "trace does not cover a %llu-insn run",
               static_cast<unsigned long long>(max_insns));
    RunResult res =
        inorder_ ? inorder_->run(max_insns) : ooo_->run(max_insns);
    // An unrecoverable in-memory corruption on the decompression path
    // poisons every cycle count after the fault; the fetch path keeps
    // delivering finite (meaningless) fills so the pipeline drains, and
    // the run is condemned here.
    if (codepack::DecompressorModel *model = decompressor();
        model && model->softError()) {
        res.status = RunStatus::DecodeFault;
        res.statusDetail = model->softErrorDetail().describe();
    }
    // The pipeline's progress watchdog returns a structured abort
    // instead of spinning; surface it here so even callers that only
    // look at cycles get a diagnosis on stderr.
    if (res.status != RunStatus::Ok)
        cps_warn("machine '%s' run aborted (%s): %s", cfg_.name.c_str(),
                 runStatusName(res.status), res.statusDetail.c_str());
    return res;
}

void
Machine::setOooTraceSink(std::vector<OooTraceEntry> *sink)
{
    cps_assert(ooo_ != nullptr,
               "per-instruction timing traces need an out-of-order machine");
    ooo_->setTraceSink(sink);
}

codepack::DecompressorModel *
Machine::decompressor()
{
    auto *cp = dynamic_cast<CodePackFetchPath *>(fetch_.get());
    return cp ? &cp->model() : nullptr;
}

} // namespace cps
