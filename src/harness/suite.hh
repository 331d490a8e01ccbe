/**
 * @file
 * Experiment harness shared by every benchmark binary: generates and
 * compresses each synthetic benchmark once per process, runs machines,
 * and computes the speedup numbers the paper's tables report.
 */

#ifndef CPS_HARNESS_SUITE_HH
#define CPS_HARNESS_SUITE_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/artifact_cache.hh"
#include "sim/machine.hh"

namespace cps
{

/** A generated benchmark with its compressed image and, when tracing is
 *  enabled, the recorded instruction stream every machine configuration
 *  replays instead of re-executing the functional core. Built once and
 *  read by every cell that runs it. */
struct BenchProgram
{
    const BenchmarkProfile *profile = nullptr;
    Program program;
    codepack::CompressedImage image;
    /** Immutable after generation; null when tracing is disabled. */
    std::unique_ptr<const TraceBuffer> trace;

    /**
     * The decoded text of program, built on the first call (from any
     * thread; a once-flag builds it exactly once) and shared read-only
     * by every Machine that runs this benchmark. Set program first.
     */
    const DecodedText &text() const;

  private:
    mutable std::once_flag textOnce_;
    mutable std::unique_ptr<const DecodedText> text_;
};

/**
 * Process-wide cache of generated benchmarks. Thread-safe: get() and
 * pregenerate() may be called from any thread. Each benchmark has its
 * own once-flag slot (fixed at construction, stable addresses), so
 * concurrent builds of *different* benchmarks never serialize against
 * each other and concurrent get()s of the *same* benchmark build it
 * exactly once.
 */
class Suite
{
  public:
    static Suite &instance();

    /** The six paper benchmarks, in Table 1 order. */
    const std::vector<std::string> &names() const { return names_; }

    /** Generates (once) and returns a benchmark by name. */
    const BenchProgram &get(const std::string &name);

    /**
     * Generates and compresses every standard benchmark, fanning the
     * independent builds out across the thread pool (each profile has
     * its own RNG seed, so the result is identical to serial
     * generation; per-benchmark once-flags make repeat calls free).
     * Table specs that read the whole suite call this when they
     * declare their cells. With a warm artifact cache the builds load
     * verified images/traces from disk instead of recomputing.
     * @param threads worker count; 0 means defaultThreadCount()
     */
    void pregenerate(unsigned threads = 0);

    /**
     * Dynamic instructions per timing run. Defaults to 1,000,000;
     * override with the CPS_INSNS environment variable (1 to 2^40),
     * which is read once (the first call caches the value). (The
     * paper ran >1e9 instructions; our synthetic workloads reach
     * steady state within well under 1e6 — see DESIGN.md
     * "Substitutions".)
     */
    static u64 runInsns();

    /**
     * Trace-entry cap per benchmark (the trace-replay memory knob, 8
     * bytes per entry). Defaults to runInsns() plus enough slack to
     * cover the deepest OoO fetch-ahead; override with CPS_TRACE_INSNS
     * (0 to 2^40; 0 disables recording entirely). Runs longer than the
     * recorded trace fall back to live execution.
     */
    static u64 traceInsns();

    /**
     * Whether timed runs replay pregenerated traces (CPS_REPLAY, on by
     * default; see envFlag). Disabling also skips
     * recording, so CPS_REPLAY=0 restores the pre-trace behaviour.
     */
    static bool replayEnabled();

  private:
    Suite();

    /** One benchmark's build-once slot. The map is immutable after
     *  construction, so lookups need no lock; call_once publishes the
     *  built BenchProgram to every waiter. */
    struct Slot
    {
        std::once_flag once;
        std::unique_ptr<BenchProgram> bench;
    };

    std::vector<std::string> names_;
    std::map<std::string, Slot> slots_;
};

/**
 * Cache keys for one benchmark's pregeneration artifacts. Each key
 * embeds every input the artifact is a function of — the full profile
 * (including its seed), the producing component's config, and a
 * format/code version tag — so any change invalidates by construction.
 */
std::string benchProgramKey(const BenchmarkProfile &profile);
std::string benchImageKey(const BenchmarkProfile &profile,
                          const codepack::CompressorConfig &cfg);
std::string benchTraceKey(const BenchmarkProfile &profile, u64 trace_cap);

/**
 * Builds one benchmark — program, CodePack image, recorded trace —
 * through @p cache: verified artifacts load from disk, anything missing
 * or corrupt is recomputed (and stored back). The result is identical
 * to an uncached build either way. Suite::get() wraps this with the
 * process-wide cache; benches use private cache instances to measure
 * cold against warm.
 * @param trace_cap recorded-trace entry cap; 0 means Suite::traceInsns()
 */
std::unique_ptr<BenchProgram> buildBenchProgram(
    const std::string &name, const ArtifactCache &cache, u64 trace_cap = 0);

/** Everything a table needs from one timed run. */
struct RunOutcome
{
    RunResult result;
    double icacheMissRate = 0.0;
    double indexCacheMissRate = 0.0;
    u64 icacheMisses = 0;
    u64 bufferHits = 0;
    u64 missLatencyTotal = 0; ///< sum of critical-word miss latencies
    /** Always 0: the simulated decompressor has no prefetcher.
     *  perfbench/cpsbench.cc still assigns and digests both fields,
     *  so they go with its next change. */
    u64 prefetchIssued = 0;
    u64 prefetchHits = 0;
};

/**
 * The recorded trace a run of @p bench under @p cfg replays: bench.trace
 * when replay is enabled and the trace covers a @p max_insns run (see
 * TraceBuffer::covers / replayLookahead), otherwise null, and the run
 * executes the functional core live.
 */
const TraceBuffer *replayTrace(const BenchProgram &bench,
                               const MachineConfig &cfg, u64 max_insns);

/** Builds one machine for @p bench under @p cfg, over the bench's
 *  shared decoded text, and runs it serially on the calling thread.
 *  With a replayTrace() the timing models replay it — same tables, one
 *  functional execution total. Parallelism lives a level up: the matrix
 *  engine fans independent cells out across workers. */
RunOutcome runMachine(const BenchProgram &bench, const MachineConfig &cfg,
                      u64 max_insns);

/** Convenience: cycles(native) / cycles(model) on identical inputs. */
inline double
speedup(const RunOutcome &native, const RunOutcome &other)
{
    if (other.result.cycles == 0)
        return 0.0;
    return static_cast<double>(native.result.cycles) /
           static_cast<double>(other.result.cycles);
}

} // namespace cps

#endif // CPS_HARNESS_SUITE_HH
