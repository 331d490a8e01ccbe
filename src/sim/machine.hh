/**
 * @file
 * Machine: one fully wired simulated system — core pipeline, L1 caches,
 * branch predictor, main memory, and (optionally) the CodePack
 * decompressor on the I-miss path. The three baseline machines of the
 * paper's Table 2 are provided as presets.
 */

#ifndef CPS_SIM_MACHINE_HH
#define CPS_SIM_MACHINE_HH

#include <memory>
#include <string>

#include "codepack/compressor.hh"
#include "codepack/timing.hh"
#include "core/executor.hh"
#include "core/trace.hh"
#include "software_fetch.hh"
#include "pipeline/config.hh"
#include "pipeline/inorder.hh"
#include "pipeline/ooo.hh"
#include "progen/progen.hh"

namespace cps
{

/** Which code model the machine runs (paper Table 5 columns). */
enum class CodeModel
{
    Native,            ///< uncompressed program, critical-word-first fills
    CodePack,          ///< baseline decompressor (last-index cache, 1/cyc)
    CodePackOptimized, ///< 64x4 index cache + 2 decoders (paper §5.3)
    CodePackCustom,    ///< caller-supplied DecompressorConfig
    CodePackSoftware,  ///< trap-based software handler (paper §6)
    NativePrefetch,    ///< native code + next-line prefetcher (ablation)
};

/** Complete machine configuration. */
struct MachineConfig
{
    std::string name = "4-issue";
    PipelineConfig pipeline;
    CacheConfig icache{16 * 1024, 32, 2};
    CacheConfig dcache{16 * 1024, 16, 2};
    MemTimingConfig mem;
    CodeModel codeModel = CodeModel::Native;
    codepack::DecompressorConfig decomp; ///< used for CodePackCustom
    SoftwareDecompressConfig software;   ///< used for CodePackSoftware

    /** Returns a copy configured for @p model. */
    MachineConfig
    withCodeModel(CodeModel model) const
    {
        MachineConfig out = *this;
        out.codeModel = model;
        return out;
    }
};

/** The paper's 1-issue embedded machine (Table 2). */
MachineConfig baseline1Issue();
/** The paper's 4-issue out-of-order machine (Table 2). */
MachineConfig baseline4Issue();
/** The paper's 8-issue high-end machine (Table 2). */
MachineConfig baseline8Issue();

/**
 * Functional steps a pipeline under @p cfg may consume beyond its
 * retired-instruction budget (the OoO front end fetches ahead of
 * commit). A recorded trace replayed for max_insns must additionally
 * cover this many entries unless it ends with the program's exit.
 */
inline u64
replayLookahead(const MachineConfig &cfg)
{
    return cfg.pipeline.inOrder ? 0 : cfg.pipeline.ruuSize + 1;
}

/**
 * One program + one machine, ready to run.
 *
 * For the CodePack code models the caller provides the compressed image
 * (compress once, simulate many machines).
 */
class Machine
{
  public:
    /**
     * @param prog the native program (must outlive the machine)
     * @param cfg machine configuration
     * @param img compressed image; required for CodePack code models
     * @param trace pre-recorded instruction stream of @p prog; when
     *        given, run() replays it instead of re-executing the
     *        functional core (must outlive the machine and cover the
     *        run length — see TraceBuffer::covers / replayLookahead)
     */
    Machine(const Program &prog, const MachineConfig &cfg,
            const codepack::CompressedImage *img = nullptr,
            const TraceBuffer *trace = nullptr);

    /** Runs until @p max_insns commit or the program exits. */
    RunResult run(u64 max_insns);

    /** True when run() replays a recorded trace instead of executing. */
    bool replaying() const { return replayTrace_ != nullptr; }

    /**
     * Streams per-instruction timing of the next run into @p sink (see
     * OoOPipeline::setTraceSink). Out-of-order machines only; nullptr
     * disables.
     */
    void setOooTraceSink(std::vector<OooTraceEntry> *sink);

    StatSet &stats() { return stats_; }
    const MachineConfig &config() const { return cfg_; }

    /** misses / line accesses, SimpleScalar-style. */
    double
    icacheMissRate() const
    {
        return stats_.ratio("icache.misses", "icache.line_accesses");
    }

    /** Index-cache hit ratio observed during L1 misses. */
    double
    indexCacheMissRate() const
    {
        u64 lookups = stats_.value("decomp.index_lookups");
        if (lookups == 0)
            return 0.0;
        u64 hits = stats_.value("decomp.index_hits");
        return static_cast<double>(lookups - hits) /
               static_cast<double>(lookups);
    }

    Executor &executor() { return exec_; }
    MainMemory &memory() { return mem_; }

    /** The decompressor model, when the machine runs compressed code. */
    codepack::DecompressorModel *decompressor();

  private:
    MachineConfig cfg_;
    const Program &prog_;
    StatSet stats_;
    MainMemory mem_;
    DecodedText text_;
    Executor exec_;
    const TraceBuffer *replayTrace_ = nullptr;
    std::unique_ptr<TraceSource> source_;
    std::unique_ptr<CachedFetchPath> fetch_;
    DataPath data_;
    std::unique_ptr<InOrderPipeline> inorder_;
    std::unique_ptr<OoOPipeline> ooo_;
};

} // namespace cps

#endif // CPS_SIM_MACHINE_HH
