/**
 * @file
 * The repository benchmark. It drives each simulator layer from outside,
 * through the layer's public functions, on one of three workloads:
 *
 *   paper_tables   the Table 5 matrix (6 profiles x {1,4,8}-issue x
 *                  {Native, CodePack, CodePackOptimized} = 54 cells) on a
 *                  warm artifact cache with trace replay. The table
 *                  regeneration the project exists for; the OoO timing
 *                  loop dominates it.
 *   embedded_miss  1-issue in-order machine x {1KB, 4KB} I-cache x
 *                  {Native, CodePack, CodePackOptimized, CodePackSoftware}
 *                  x 6 profiles = 48 cells. Small caches miss constantly,
 *                  so the decompressor model and host block decode carry
 *                  the work; no OoO loop runs.
 *   cold_build     every profile generated, assembled, compressed,
 *                  trace-recorded and stored into an empty cache, then
 *                  reloaded and verified, then one short Native/CodePack
 *                  4-issue check cell each. Set-up is the whole workload.
 *
 * Every workload is a closed loop: a fixed pool of workers, each taking
 * the next cell (or program) when its last one finishes.
 *
 * Usage:
 *   cpsbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--git-hash H] [--source-digest D] [--ipc-table]
 *
 * --seed derives every profile's generator seed; seed 0 keeps the
 * calibrated seeds, i.e. the programs the table binaries simulate.
 * --trace 0 reports the end-to-end metrics; --trace 1 runs the same work
 * with spans around each layer call and reports the per-layer metrics.
 * --ipc-table prints the paper_tables IPC rows once and exits (used to
 * cross-check against bench_table5_ipc).
 *
 * The last line of stdout is one JSON object:
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "asmkit/assembler.hh"
#include "asmkit/objfile.hh"
#include "codepack/decompressor.hh"
#include "codepack/imagefile.hh"
#include "common/artifact_cache.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "harness/engine.hh"
#include "spans.hh"

extern char **environ;

using namespace cps;
using harness::RunRequest;
using perfbench::Scope;
using perfbench::Tracer;

namespace
{

using Clock = std::chrono::steady_clock;

/** Workers never exceed this, nor the host's core count. */
constexpr unsigned kMaxWorkers = 4;
/** Untraced runs repeat set-up + matrix at least this often, so every
 *  reported time is a median of several samples. */
constexpr int kMinIterations = 3;
/** Retired-instruction budget of a cold_build check cell. */
constexpr u64 kCheckInsns = 500000;

enum class Workload
{
    PaperTables,
    EmbeddedMiss,
    ColdBuild,
};

struct Args
{
    Workload workload = Workload::PaperTables;
    std::string workloadName;
    u64 seed = 0;
    double seconds = 10.0;
    bool trace = false;
    unsigned workers = 1;
    bool ipcTable = false;
    std::string gitHash = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "cpsbench: %s\nusage: cpsbench --workload "
                 "paper_tables|embedded_miss|cold_build --seed N "
                 "--seconds S --trace 0|1 [--git-hash H] "
                 "[--source-digest D] [--ipc-table]\n",
                 msg);
    std::exit(2);
}

u64
parseU64(const char *s, const char *what)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usage(what);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--ipc-table") {
            a.ipcTable = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value");
        const char *v = argv[++i];
        if (flag == "--workload") {
            a.workloadName = v;
            have_workload = true;
            if (a.workloadName == "paper_tables")
                a.workload = Workload::PaperTables;
            else if (a.workloadName == "embedded_miss")
                a.workload = Workload::EmbeddedMiss;
            else if (a.workloadName == "cold_build")
                a.workload = Workload::ColdBuild;
            else
                usage("unknown workload");
        } else if (flag == "--seed") {
            a.seed = parseU64(v, "bad --seed");
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseU64(v, "bad --seconds"));
        } else if (flag == "--trace") {
            u64 t = parseU64(v, "bad --trace");
            if (t > 1)
                usage("--trace takes 0 or 1");
            a.trace = t == 1;
        } else if (flag == "--git-hash") {
            a.gitHash = v;
        } else if (flag == "--source-digest") {
            a.sourceDigest = v;
        } else {
            usage("unknown flag");
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/**
 * Pins the measured program: every CPS_* knob is removed from the
 * environment before the simulator reads any of them, so a stray
 * CPS_THREADS, CPS_DECODE_KERNEL, CPS_CACHE_DIR, ... cannot change what
 * is measured. Returns the names removed.
 */
std::vector<std::string>
clearKnobs()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "CPS_", 4) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
    return names;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v, @p p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Order-sensitive 64-bit digest for equality checks. */
struct Digest
{
    u64 h = 0x6a09e667f3bcc909ULL;
    void add(u64 v) { h = splitmix64(h ^ v); }
};

u64
traceDigest(const TraceBuffer &t)
{
    Digest d;
    d.add(t.size());
    d.add(t.complete() ? 1 : 0);
    for (size_t i = 0; i < t.size(); ++i) {
        const TraceEntry &e = t.entry(i);
        u64 w[2];
        std::memcpy(w, &e, sizeof w);
        d.add(w[0]);
        d.add(w[1]);
    }
    return d.h;
}

/**
 * The calibrated profiles with every generator seed derived from
 * @p seed. Seed 0 keeps the calibrated seeds, so it rebuilds exactly
 * the programs the table binaries simulate.
 */
std::vector<BenchmarkProfile>
seededProfiles(u64 seed)
{
    std::vector<BenchmarkProfile> out = standardProfiles();
    if (seed != 0)
        for (BenchmarkProfile &p : out)
            p.seed = splitmix64(p.seed ^ splitmix64(seed));
    return out;
}

/** Operations attempted and failed (cells, builds, reloads, digests). */
class Checks
{
  public:
    void
    record(bool ok, const std::string &what)
    {
        attempted_.fetch_add(1);
        if (!ok) {
            failed_.fetch_add(1);
            std::fprintf(stderr, "cpsbench: check failed: %s\n",
                         what.c_str());
        }
    }

    u64 attempted() const { return attempted_.load(); }
    u64 failed() const { return failed_.load(); }

  private:
    std::atomic<u64> attempted_{0};
    std::atomic<u64> failed_{0};
};

/** Artifact-cache traffic, summed over every cache a run opens. */
struct CacheCounters
{
    std::atomic<u64> hits{0}, misses{0}, bytesRead{0}, bytesWritten{0};
};

/** The artifact cache with the per-layer counters and spans around it. */
class CountingCache
{
  public:
    CountingCache(const std::string &dir, Tracer &tracer,
                  CacheCounters &counters)
        : cache_(dir, true), tracer_(tracer), counters_(counters)
    {}

    std::optional<std::vector<u8>>
    load(const std::string &key)
    {
        Scope s(tracer_, "artifact.load");
        std::optional<std::vector<u8>> bytes = cache_.load(key);
        if (bytes) {
            counters_.hits.fetch_add(1);
            counters_.bytesRead.fetch_add(bytes->size());
        } else {
            counters_.misses.fetch_add(1);
        }
        return bytes;
    }

    bool
    store(const std::string &key, const std::vector<u8> &payload)
    {
        Scope s(tracer_, "artifact.store");
        bool ok = cache_.store(key, payload);
        if (ok)
            counters_.bytesWritten.fetch_add(payload.size());
        return ok;
    }

  private:
    ArtifactCache cache_;
    Tracer &tracer_;
    CacheCounters &counters_;
};

/** The programs, images and traces a matrix runs on, in profile order. */
using Programs = std::vector<std::unique_ptr<BenchProgram>>;

/**
 * Cold path for one profile, in buildBenchProgram's shape: each artifact
 * misses in the (empty) cache, is computed and stored. Returns the
 * recorded trace's digest.
 */
u64
coldBuild(const BenchmarkProfile &p, CountingCache &cache, Tracer &tr,
          Checks &checks)
{
    const std::string prog_key = benchProgramKey(p);
    cache.load(prog_key);
    std::string source;
    {
        Scope s(tr, "progen.source");
        source = generateSource(p);
    }
    AsmResult assembled;
    {
        Scope s(tr, "asmkit.assemble");
        assembled = assembleSource(source);
    }
    checks.record(assembled.ok(), "assemble " + p.name);
    const Program &program = assembled.program;
    {
        std::vector<u8> bytes;
        {
            Scope s(tr, "asmkit.encode");
            bytes = encodeProgram(program);
        }
        cache.store(prog_key, bytes);
    }

    const std::string img_key =
        benchImageKey(p, codepack::CompressorConfig{});
    cache.load(img_key);
    codepack::CompressedImage image;
    {
        Scope s(tr, "codepack.compress");
        image = codepack::compress(program);
    }
    {
        std::vector<u8> bytes;
        {
            Scope s(tr, "codepack.image_encode");
            bytes = codepack::encodeImage(image);
        }
        cache.store(img_key, bytes);
    }

    const std::string trace_key = benchTraceKey(p, Suite::traceInsns());
    cache.load(trace_key);
    TraceBuffer trace;
    {
        Scope s(tr, "core.record");
        trace = recordTrace(program, Suite::traceInsns());
    }
    {
        std::vector<u8> bytes;
        {
            Scope s(tr, "core.trace_encode");
            bytes = encodeTrace(trace);
        }
        cache.store(trace_key, bytes);
    }
    return traceDigest(trace);
}

/**
 * Warm path for one profile: load every artifact, decode it, verify the
 * image decompresses back to the program text and the trace equals the
 * one recorded (by digest). Returns null on any failure.
 */
std::unique_ptr<BenchProgram>
warmLoad(const BenchmarkProfile &p, CountingCache &cache, Tracer &tr,
         u64 recorded_digest, Checks &checks)
{
    auto b = std::make_unique<BenchProgram>();
    b->profile = &p;

    std::optional<std::vector<u8>> bytes = cache.load(benchProgramKey(p));
    std::optional<Program> prog;
    if (bytes) {
        Scope s(tr, "asmkit.decode");
        prog = decodeProgram(*bytes);
    }
    checks.record(prog.has_value(), "reload program " + p.name);
    if (!prog)
        return nullptr;
    b->program = std::move(*prog);

    bytes = cache.load(benchImageKey(p, codepack::CompressorConfig{}));
    std::optional<codepack::CompressedImage> img;
    if (bytes) {
        Scope s(tr, "codepack.image_decode");
        if (Result<codepack::CompressedImage> r =
                codepack::decodeImageChecked(*bytes))
            img = std::move(*r);
    }
    checks.record(img.has_value(), "reload image " + p.name);
    if (!img)
        return nullptr;
    b->image = std::move(*img);
    bool round_trip = false;
    {
        Scope s(tr, "codepack.image_verify");
        Result<std::vector<u32>> words =
            codepack::Decompressor(b->image).tryDecompressAll();
        if (words && words->size() >= b->program.textWords()) {
            round_trip = true;
            for (size_t i = 0; i < b->program.textWords() && round_trip; ++i)
                round_trip = (*words)[i] == b->program.word(i);
        }
    }
    checks.record(round_trip, "image round trip " + p.name);
    if (!round_trip)
        return nullptr;

    bytes = cache.load(benchTraceKey(p, Suite::traceInsns()));
    std::optional<TraceBuffer> trace;
    if (bytes) {
        Scope s(tr, "core.trace_decode");
        if (Result<TraceBuffer> r = decodeTraceChecked(*bytes))
            trace = std::move(*r);
    }
    bool same_trace = false;
    if (trace) {
        Scope s(tr, "core.trace_verify");
        same_trace = traceDigest(*trace) == recorded_digest;
    }
    checks.record(same_trace, "reloaded trace equals recorded " + p.name);
    if (!same_trace)
        return nullptr;
    b->trace = std::make_unique<const TraceBuffer>(std::move(*trace));
    return b;
}

/** One matrix cell plus the Native cell it is compared against. */
struct Cell
{
    RunRequest req;
    int nativeIndex = -1; ///< -1 for Native cells
};

std::vector<Cell>
buildCells(Workload w, const Programs &progs)
{
    std::vector<Cell> cells;
    auto add = [&](const BenchProgram &b, const MachineConfig &cfg,
                   u64 insns, int native) {
        Cell c;
        c.req = RunRequest{&b, cfg, insns};
        c.nativeIndex = native;
        cells.push_back(c);
    };
    for (const auto &p : progs) {
        const BenchProgram &b = *p;
        switch (w) {
        case Workload::PaperTables:
            for (const MachineConfig &m :
                 {baseline1Issue(), baseline4Issue(), baseline8Issue()}) {
                int native = static_cast<int>(cells.size());
                add(b, m, Suite::runInsns(), -1);
                add(b, m.withCodeModel(CodeModel::CodePack),
                    Suite::runInsns(), native);
                add(b, m.withCodeModel(CodeModel::CodePackOptimized),
                    Suite::runInsns(), native);
            }
            break;
        case Workload::EmbeddedMiss:
            for (u32 kb : {1u, 4u}) {
                MachineConfig m = baseline1Issue();
                m.icache = CacheConfig{kb * 1024, 32, 2};
                int native = static_cast<int>(cells.size());
                add(b, m, Suite::runInsns(), -1);
                for (CodeModel model :
                     {CodeModel::CodePack, CodeModel::CodePackOptimized,
                      CodeModel::CodePackSoftware})
                    add(b, m.withCodeModel(model), Suite::runInsns(),
                        native);
            }
            break;
        case Workload::ColdBuild: {
            MachineConfig m = baseline4Issue();
            int native = static_cast<int>(cells.size());
            add(b, m, kCheckInsns, -1);
            add(b, m.withCodeModel(CodeModel::CodePack), kCheckInsns,
                native);
            break;
        }
        }
    }
    return cells;
}

/** The simulated counters the traced run sums over a matrix. */
const char *const kSimCounters[] = {
    "pipeline.insns",         "pipeline.cycles",
    "icache.line_accesses",   "icache.misses",
    "icache.miss_latency_total", "dcache.misses",
    "bpred.dir_mispredicts",  "decomp.misses",
    "decomp.index_lookups",   "decomp.index_hits",
    "decomp.buffer_hits",     "swdecomp.traps",
    "hostpf.hits",            "hostpf.fills",
    "hostpf.prefetch_issued", "hostpf.prefetch_hits",
};
constexpr size_t kNumSimCounters = std::size(kSimCounters);

bool
cellOk(const RunRequest &req, const RunResult &r)
{
    return r.ok() && (r.instructions == req.maxInsns || r.programExited);
}

/** Adds the RunOutcome fields every table reads to @p d. */
void
digestOutcome(Digest &d, const RunOutcome &o)
{
    d.add(o.result.instructions);
    d.add(o.result.cycles);
    d.add(o.result.programExited);
    d.add(static_cast<u64>(o.result.status));
    d.add(o.icacheMisses);
    d.add(o.bufferHits);
    d.add(o.missLatencyTotal);
    d.add(o.prefetchIssued);
    d.add(o.prefetchHits);
}

struct MatrixRep
{
    double wallS = 0.0;
    double cpuS = 0.0;
    u64 insns = 0;
    u64 digest = 0;
    std::vector<RunOutcome> outcomes;
};

/** The table binaries' path: harness::runMatrixCells. */
MatrixRep
runMatrixUntraced(const std::vector<Cell> &cells, unsigned workers,
                  Checks &checks)
{
    std::vector<RunRequest> reqs;
    for (const Cell &c : cells)
        reqs.push_back(c.req);
    MatrixRep rep;
    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    std::vector<harness::CellOutcome> outs =
        harness::runMatrixCells(reqs, workers);
    rep.wallS = secondsSince(t0);
    rep.cpuS = cpuSeconds() - cpu0;
    Digest d;
    for (size_t i = 0; i < outs.size(); ++i) {
        const harness::CellOutcome &c = outs[i];
        checks.record(c.status.ok() && cellOk(reqs[i], c.outcome.result),
                      strfmt("cell %zu (%s)", i, c.status.describe().c_str()));
        rep.insns += c.outcome.result.instructions;
        digestOutcome(d, c.outcome);
        rep.outcomes.push_back(c.outcome);
    }
    rep.digest = d.h;
    return rep;
}

/** Per-cell host timings and counters from a traced matrix. */
struct TracedCell
{
    double ctorMs = 0.0;
    double runMs = 0.0;
    double busyMs = 0.0;
    bool inOrder = false;
    u64 insns = 0;
    u64 cycles = 0;
    u64 counters[kNumSimCounters] = {};
};

struct TracedRep
{
    double wallS = 0.0;
    u64 digest = 0;
    std::vector<TracedCell> cells;
};

/**
 * The same cells as runMatrixCells runs them inline (one Machine per
 * cell, replaying the trace when it covers the run), with spans around
 * the Machine constructor and Machine::run.
 */
TracedRep
runMatrixTraced(const std::vector<Cell> &cells, unsigned workers,
                Tracer &tr, int first_cell_id, Checks &checks)
{
    TracedRep rep;
    rep.cells.resize(cells.size());
    std::vector<RunOutcome> outcomes(cells.size());
    const Clock::time_point t0 = Clock::now();
    {
        Scope matrix(tr, "harness.matrix");
        const int matrix_id = matrix.id();
        ThreadPool pool(workers);
        pool.parallelFor(cells.size(), [&](size_t i) {
            const RunRequest &req = cells[i].req;
            const BenchProgram &b = *req.bench;
            TracedCell &tc = rep.cells[i];
            Scope cell(tr, "harness.cell", matrix_id,
                       first_cell_id + static_cast<int>(i));
            const TraceBuffer *trace =
                b.trace && b.trace->covers(req.maxInsns,
                                           replayLookahead(req.cfg))
                    ? b.trace.get()
                    : nullptr;
            std::unique_ptr<Machine> m;
            {
                Scope s(tr, "sim.machine_ctor");
                m = std::make_unique<Machine>(
                    b.program, req.cfg,
                    req.cfg.codeModel == CodeModel::Native ? nullptr
                                                           : &b.image,
                    trace);
                tc.ctorMs = s.stop();
            }
            tc.inOrder = req.cfg.pipeline.inOrder;
            RunOutcome &o = outcomes[i];
            {
                Scope s(tr, tc.inOrder ? "pipeline.inorder_run"
                                       : "pipeline.ooo_run");
                o.result = m->run(req.maxInsns);
                tc.runMs = s.stop();
            }
            const StatSet &st = m->stats();
            o.icacheMisses = st.value("icache.misses");
            o.bufferHits = st.value("decomp.buffer_hits");
            o.missLatencyTotal = st.value("icache.miss_latency_total");
            o.prefetchIssued = st.value("decomp.prefetch_issued") +
                               st.value("swdecomp.prefetch_issued");
            o.prefetchHits = st.value("decomp.prefetch_hits") +
                             st.value("swdecomp.prefetch_hits");
            tc.insns = o.result.instructions;
            tc.cycles = o.result.cycles;
            for (size_t k = 0; k < kNumSimCounters; ++k)
                tc.counters[k] = st.value(kSimCounters[k]);
            m.reset();
            tc.busyMs = cell.stop();
        });
    }
    rep.wallS = secondsSince(t0);
    Digest d;
    for (size_t i = 0; i < cells.size(); ++i) {
        checks.record(cellOk(cells[i].req, outcomes[i].result),
                      strfmt("traced cell %zu", i));
        digestOutcome(d, outcomes[i]);
    }
    rep.digest = d.h;
    return rep;
}

/** Everything one workload run keeps between phases. */
class Bench
{
  public:
    Bench(const Args &args, Tracer &tracer)
        : args_(args), tracer_(tracer), profiles_(seededProfiles(args.seed)),
          runDir_(strfmt(".bench_cache/%s-s%llu-p%d",
                         args.workloadName.c_str(),
                         static_cast<unsigned long long>(args.seed),
                         static_cast<int>(::getpid())))
    {
        std::filesystem::remove_all(runDir_);
    }

    ~Bench() { std::filesystem::remove_all(runDir_); }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    Checks checks;
    Programs progs;
    /** Traffic of the timed set-ups' caches (not the preparation's). */
    CacheCounters cacheCounters;

    /**
     * Untimed preparation for the warm workloads: builds every profile
     * into the benchmark's own cache, so the timed set-up only loads and
     * verifies. The build runs in a child process, so its memory peak
     * stays out of this process's peak_rss_mb; the child sends back the
     * recorded traces' digests. Call before any thread is started.
     * @return false when the child failed
     */
    bool
    prepareWarmCache()
    {
        int fds[2];
        if (::pipe(fds) != 0)
            return false;
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            return false;
        }
        if (pid == 0) {
            ::close(fds[0]);
            Tracer off(false);
            CacheCounters unused;
            CountingCache cache(warmDir(), off, unused);
            std::vector<u64> digests(profiles_.size());
            {
                ThreadPool pool(args_.workers);
                pool.parallelFor(profiles_.size(), [&](size_t i) {
                    digests[i] = coldBuild(profiles_[i], cache, off, checks);
                });
            }
            const size_t bytes = digests.size() * sizeof(u64);
            const bool ok =
                checks.failed() == 0 &&
                ::write(fds[1], digests.data(), bytes) ==
                    static_cast<ssize_t>(bytes);
            ::_exit(ok ? 0 : 1);
        }
        ::close(fds[1]);
        recorded_.assign(profiles_.size(), 0);
        const size_t want = recorded_.size() * sizeof(u64);
        size_t got = 0;
        while (got < want) {
            ssize_t n = ::read(fds[0],
                               reinterpret_cast<char *>(recorded_.data()) +
                                   got,
                               want - got);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            got += static_cast<size_t>(n);
        }
        ::close(fds[0]);
        int status = 0;
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        const bool ok =
            got == want && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        checks.record(ok, "prepare the warm artifact cache");
        return ok;
    }

    /**
     * One timed set-up; leaves progs ready for the matrix. Cold: build
     * into an empty cache, then reload and verify. Warm: reload and
     * verify from the prepared cache.
     * @return wall seconds, or a negative value when a program failed
     */
    double
    setup(int iteration)
    {
        progs.clear();
        progs.resize(profiles_.size());
        const bool cold = args_.workload == Workload::ColdBuild;
        std::string dir =
            cold ? strfmt("%s/cold%d", runDir_.c_str(), iteration)
                 : warmDir();
        CountingCache cache(dir, tracer_, cacheCounters);
        const Clock::time_point t0 = Clock::now();
        {
            Scope root(tracer_, "setup");
            const int root_id = root.id();
            ThreadPool pool(args_.workers);
            if (cold) {
                recorded_.assign(profiles_.size(), 0);
                pool.parallelFor(profiles_.size(), [&](size_t i) {
                    Scope s(tracer_, "program.build", root_id,
                            static_cast<int>(i));
                    recorded_[i] =
                        coldBuild(profiles_[i], cache, tracer_, checks);
                });
            }
            pool.parallelFor(profiles_.size(), [&](size_t i) {
                Scope s(tracer_, "program.load", root_id,
                        static_cast<int>(i));
                progs[i] = warmLoad(profiles_[i], cache, tracer_,
                                    recorded_[i], checks);
            });
        }
        const double wall = secondsSince(t0);
        if (cold)
            std::filesystem::remove_all(dir);
        for (const auto &p : progs)
            if (!p)
                return -1.0;
        return wall;
    }

  private:
    std::string warmDir() const { return runDir_ + "/warm"; }

    const Args &args_;
    Tracer &tracer_;
    std::vector<BenchmarkProfile> profiles_;
    std::string runDir_;
    std::vector<u64> recorded_;
};

/** Metric name, value, unit, in report order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
fmtNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    return strfmt("%.17g", v);
}

std::string
manifestJson(const Args &a, const std::vector<std::string> &cleared,
             const char *cache_state, int iterations, u64 digest)
{
    std::string knobs;
    for (const std::string &k : cleared)
        knobs += (knobs.empty() ? "\"" : ", \"") + k + "\"";
    return strfmt(
        "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
        "\"nproc\": %u, \"workers\": %u, \"git_hash\": \"%s\", "
        "\"source_digest\": \"%s\", \"cache_state\": \"%s\", "
        "\"run_insns\": %llu, \"iterations\": %d, "
        "\"sim_digest\": \"%016llx\", \"cleared_knobs\": [%s]}",
        a.workloadName.c_str(), static_cast<unsigned long long>(a.seed),
        a.trace ? 1 : 0, std::thread::hardware_concurrency(), a.workers,
        a.gitHash.c_str(), a.sourceDigest.c_str(), cache_state,
        static_cast<unsigned long long>(Suite::runInsns()), iterations,
        static_cast<unsigned long long>(digest), knobs.c_str());
}

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-36s %16s %s\n", m.name.c_str(),
                    fmtNumber(m.value).c_str(), m.unit.c_str());
    std::string body;
    for (const Metric &m : metrics)
        body += strfmt("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       body.empty() ? "" : ", ", m.name.c_str(),
                       fmtNumber(m.value).c_str(), m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                checks.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted()),
                static_cast<unsigned long long>(checks.failed()),
                body.c_str());
    std::fflush(stdout);
}

/**
 * Trusted decode (Decompressor::decompressBlock) of every block of every
 * image, in ns per block. The decoded words are summed and checked
 * against the program text (padding decodes to NOP = 0).
 */
double
decodeNsPerBlock(const Programs &progs, Tracer &tr,
                 Checks &checks)
{
    constexpr int kPasses = 5;
    u64 blocks = 0, sum = 0, expected = 0;
    for (const auto &p : progs)
        for (size_t i = 0; i < p->program.textWords(); ++i)
            expected += kPasses * u64{p->program.word(i)};
    Scope s(tr, "codepack.decode_blocks");
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
        for (const auto &p : progs) {
            const codepack::CompressedImage &img = p->image;
            codepack::Decompressor d(img);
            for (u32 flat = 0; flat < img.numBlocks(); ++flat) {
                codepack::DecodedBlock blk = d.decompressFlatBlock(flat);
                for (u32 w : blk.words)
                    sum += w;
                ++blocks;
            }
        }
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    checks.record(sum == expected, "host block decode reproduces the text");
    return blocks ? ns / static_cast<double>(blocks) : 0.0;
}

int
runUntraced(const Args &args, const std::vector<std::string> &cleared)
{
    Tracer off(false);
    Bench bench(args, off);
    const bool cold = args.workload == Workload::ColdBuild;
    if (!cold && !bench.prepareWarmCache()) {
        printResult(bench.checks, {});
        return 0;
    }

    std::vector<double> setup_s, wall_s, rate;
    std::optional<u64> digest;
    const Clock::time_point start = Clock::now();
    int it = 0;
    for (; it < kMinIterations || secondsSince(start) < args.seconds; ++it) {
        double s = bench.setup(it);
        if (s < 0)
            break;
        setup_s.push_back(s);
        MatrixRep rep = runMatrixUntraced(buildCells(args.workload,
                                                     bench.progs),
                                          args.workers, bench.checks);
        wall_s.push_back(rep.wallS);
        rate.push_back(static_cast<double>(rep.insns) / 1e6 / rep.cpuS);
        std::fprintf(stderr,
                     "iteration %d: setup_s=%.4f matrix_wall_s=%.4f "
                     "matrix_cpu_s=%.4f\n",
                     it, s, rep.wallS, rep.cpuS);
        if (digest)
            bench.checks.record(*digest == rep.digest,
                                "simulated counts repeat across iterations");
        digest = rep.digest;
    }
    const bool ok = !setup_s.empty() && bench.checks.failed() == 0;

    std::printf("manifest %s\n",
                manifestJson(args, cleared, cold ? "cold" : "warm", it,
                             digest.value_or(0))
                    .c_str());
    std::vector<Metric> metrics;
    if (ok) {
        metrics = {
            {"setup_s", median(setup_s), "s"},
            {"matrix_wall_s", median(wall_s), "s"},
            {"sim_minsn_per_cpu_s", median(rate), "Minsn/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    }
    printResult(bench.checks, metrics);
    return 0;
}

int
runTraced(const Args &args, const std::vector<std::string> &cleared)
{
    Tracer tracer(true);
    Bench bench(args, tracer);
    const bool cold = args.workload == Workload::ColdBuild;
    if (!cold && !bench.prepareWarmCache()) {
        printResult(bench.checks, {});
        return 0;
    }

    std::vector<double> untraced_wall, traced_wall;
    std::vector<TracedCell> all_cells;
    std::vector<Cell> cells;
    TracedRep last;
    std::optional<u64> digest;
    double idle_sum = 0.0;
    const Clock::time_point start = Clock::now();
    int it = 0;
    bool setup_failed = false;
    for (; it < 1 || secondsSince(start) < args.seconds; ++it) {
        if (bench.setup(it) < 0) {
            setup_failed = true;
            break;
        }
        cells = buildCells(args.workload, bench.progs);
        MatrixRep plain = runMatrixUntraced(cells, args.workers, bench.checks);
        last = runMatrixTraced(cells, args.workers, tracer,
                               it * static_cast<int>(cells.size()),
                               bench.checks);
        bench.checks.record(plain.digest == last.digest,
                            "traced and untraced runs agree");
        if (digest)
            bench.checks.record(*digest == last.digest,
                                "simulated counts repeat across iterations");
        digest = last.digest;
        untraced_wall.push_back(plain.wallS);
        traced_wall.push_back(last.wallS);
        double busy = 0.0;
        for (const TracedCell &c : last.cells)
            busy += c.busyMs;
        idle_sum += 1.0 - busy / (1e3 * last.wallS * args.workers);
        all_cells.insert(all_cells.end(), last.cells.begin(),
                         last.cells.end());
    }
    if (setup_failed) {
        printResult(bench.checks, {});
        return 0;
    }
    const double decode_ns =
        decodeNsPerBlock(bench.progs, tracer, bench.checks);
    const double n = static_cast<double>(it);

    // Per-iteration host times (ms) from the spans.
    auto ms = [&](const char *name) { return tracer.totalMs(name) / n; };
    // Exact counts of the last iteration (they repeat; checked above).
    u64 sim[kNumSimCounters] = {};
    for (const TracedCell &c : last.cells)
        for (size_t k = 0; k < kNumSimCounters; ++k)
            sim[k] += c.counters[k];
    // Host times summed over every iteration's cells, then per iteration.
    double ooo_ms = 0, ino_ms = 0, model_ms = 0, ctor_ms = 0;
    double ooo_insns = 0, ooo_cycles = 0, ino_insns = 0;
    for (size_t i = 0; i < all_cells.size(); ++i) {
        const TracedCell &c = all_cells[i];
        ctor_ms += c.ctorMs / n;
        if (c.inOrder) {
            ino_ms += c.runMs / n;
            ino_insns += static_cast<double>(c.insns) / n;
        } else {
            ooo_ms += c.runMs / n;
            ooo_insns += static_cast<double>(c.insns) / n;
            ooo_cycles += static_cast<double>(c.cycles) / n;
        }
        const int native = cells[i % cells.size()].nativeIndex;
        if (native >= 0)
            model_ms += (c.runMs - all_cells[i - i % cells.size() + native]
                                       .runMs) / n;
    }
    auto simValue = [&](const char *name) {
        for (size_t k = 0; k < kNumSimCounters; ++k)
            if (std::strcmp(kSimCounters[k], name) == 0)
                return static_cast<double>(sim[k]);
        return 0.0;
    };
    std::vector<double> cell_ms;
    for (const TracedCell &c : all_cells)
        cell_ms.push_back(c.busyMs);

    u64 text_bytes = 0, record_insns = 0, comp_bytes = 0, orig_bytes = 0;
    for (const auto &p : bench.progs) {
        text_bytes += p->program.text.bytes.size();
        record_insns += p->trace->size();
        comp_bytes += p->image.comp.totalBytes();
        orig_bytes += p->image.origTextBytes;
    }
    const double hp_hits = simValue("hostpf.hits");
    const double hp_fills = simValue("hostpf.fills");
    const double hp_issued = simValue("hostpf.prefetch_issued");
    const double hp_pf_hits = simValue("hostpf.prefetch_hits");
    const double accesses = hp_hits + hp_fills + hp_pf_hits;
    auto perIter = [&](const std::atomic<u64> &total) {
        return static_cast<double>(total.load()) / n;
    };

    std::vector<Metric> metrics = {
        {"progen.source_ms", ms("progen.source"), "ms"},
        {"asmkit.assemble_ms", ms("asmkit.assemble"), "ms"},
        {"progen.text_bytes", static_cast<double>(text_bytes), "bytes"},
        {"codepack.compress_ms", ms("codepack.compress"), "ms"},
        {"codepack.compress_ratio",
         orig_bytes ? static_cast<double>(comp_bytes) /
                          static_cast<double>(orig_bytes)
                    : 0.0,
         "ratio"},
        {"core.record_ms", ms("core.record"), "ms"},
        {"core.record_insns", static_cast<double>(record_insns), "count"},
        {"core.trace_encode_ms", ms("core.trace_encode"), "ms"},
        {"core.trace_decode_ms", ms("core.trace_decode"), "ms"},
        {"codepack.image_verify_ms", ms("codepack.image_verify"), "ms"},
        {"artifact.load_ms", ms("artifact.load"), "ms"},
        {"artifact.store_ms", ms("artifact.store"), "ms"},
        {"artifact.hits", perIter(bench.cacheCounters.hits), "count"},
        {"artifact.misses", perIter(bench.cacheCounters.misses), "count"},
        {"artifact.bytes_read", perIter(bench.cacheCounters.bytesRead),
         "bytes"},
        {"artifact.bytes_written", perIter(bench.cacheCounters.bytesWritten),
         "bytes"},
        {"sim.machine_ctor_ms", ctor_ms, "ms"},
        {"pipeline.ooo_run_ms", ooo_ms, "ms"},
        {"pipeline.ooo_minsn_per_s",
         ooo_ms > 0 ? ooo_insns / 1e3 / ooo_ms : 0.0,
         "Minsn/s"},
        {"pipeline.ooo_host_ns_per_sim_cycle",
         ooo_cycles > 0 ? ooo_ms * 1e6 / ooo_cycles : 0.0,
         "ns"},
        {"pipeline.inorder_run_ms", ino_ms, "ms"},
        {"pipeline.inorder_minsn_per_s",
         ino_ms > 0 ? ino_insns / 1e3 / ino_ms : 0.0,
         "Minsn/s"},
        {"codepack.model_ms", model_ms, "ms"},
        {"codepack.decode_ns_per_block", decode_ns, "ns"},
        {"hostpf.hits", hp_hits, "count"},
        {"hostpf.fills", hp_fills, "count"},
        {"hostpf.prefetch_issued", hp_issued, "count"},
        {"hostpf.prefetch_hits", hp_pf_hits, "count"},
        {"hostpf.useful_frac", hp_issued > 0 ? hp_pf_hits / hp_issued : 0.0,
         "frac"},
        {"hostpf.decodes_per_access",
         accesses > 0 ? (hp_fills + hp_issued) / accesses : 0.0, "ratio"},
    };
    for (const char *name : kSimCounters)
        if (std::strncmp(name, "hostpf.", 7) != 0)
            metrics.push_back({name, simValue(name), "count"});
    metrics.push_back(
        {"harness.cell_ms_p50", percentile(cell_ms, 50), "ms"});
    metrics.push_back(
        {"harness.cell_ms_p90", percentile(cell_ms, 90), "ms"});
    metrics.push_back({"harness.pool_idle_frac", idle_sum / n, "frac"});
    metrics.push_back({"trace_overhead_frac",
                       median(traced_wall) / median(untraced_wall) - 1.0,
                       "frac"});
    metrics.push_back(
        {"cells_failed_frac",
         bench.checks.attempted()
             ? static_cast<double>(bench.checks.failed()) /
                   static_cast<double>(bench.checks.attempted())
             : 0.0,
         "frac"});

    // Where the time went: self time per span name, largest first.
    std::map<std::string, double> self = tracer.selfMsByName();
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto &[name, v] : self)
        ranked.emplace_back(v / n, name);
    std::sort(ranked.rbegin(), ranked.rend());
    std::fprintf(stderr, "self time per iteration (ms), largest first:\n");
    for (const auto &[v, name] : ranked)
        std::fprintf(stderr, "  %-28s %12.3f\n", name.c_str(), v);

    const std::string manifest = manifestJson(
        args, cleared, cold ? "cold" : "warm", it, digest.value_or(0));
    std::filesystem::create_directories(".bench_out");
    const std::string path =
        strfmt(".bench_out/spans-%s-s%llu.json", args.workloadName.c_str(),
               static_cast<unsigned long long>(args.seed));
    if (!tracer.write(path, manifest))
        std::fprintf(stderr, "cpsbench: cannot write %s\n", path.c_str());
    std::printf("manifest %s\n", manifest.c_str());
    printResult(bench.checks, metrics);
    return 0;
}

/** Prints the paper_tables IPC rows in Table 5's column order. */
int
printIpcTable(const Args &args)
{
    Tracer off(false);
    Bench bench(args, off);
    if (!bench.prepareWarmCache() || bench.setup(0) < 0)
        return 1;
    std::vector<Cell> cells = buildCells(Workload::PaperTables, bench.progs);
    MatrixRep rep = runMatrixUntraced(cells, args.workers, bench.checks);
    for (size_t i = 0; i < rep.outcomes.size(); ++i) {
        if (i % 9 == 0)
            std::printf("%s", cells[i].req.bench->profile->name.c_str());
        std::printf(" %s",
                    TextTable::fmt(rep.outcomes[i].result.ipc(), 3).c_str());
        if (i % 9 == 8)
            std::printf("\n");
    }
    return bench.checks.failed() == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> cleared = clearKnobs();
    Args args = parseArgs(argc, argv);
    args.workers = std::min(
        kMaxWorkers, std::max(1u, std::thread::hardware_concurrency()));
    if (args.ipcTable) {
        args.workload = Workload::PaperTables;
        return printIpcTable(args);
    }
    return args.trace ? runTraced(args, cleared) : runUntraced(args, cleared);
}
