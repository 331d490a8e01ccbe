#include "ext_tables.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "compress/ccrp.hh"
#include "compress/dict32.hh"

namespace cps
{
namespace harness
{

namespace
{

std::vector<u32>
textWords(const Program &prog)
{
    std::vector<u32> words;
    words.reserve(prog.textWords());
    for (size_t i = 0; i < prog.textWords(); ++i)
        words.push_back(prog.word(i));
    return words;
}

/**
 * Runs a benchmark with a line-codec fetch path on the 4-issue core,
 * over the bench's shared text, replaying its trace whenever runMachine
 * would.
 */
RunResult
runWithCodec(const BenchProgram &bench, const compress::LineCodec &codec)
{
    const MachineConfig cfg = baseline4Issue();
    const u64 insns = Suite::runInsns();
    MainMemory mem(cfg.mem);
    mem.loadSegment(bench.program.text);
    mem.loadSegment(bench.program.data);
    StatSet stats;
    compress::LineCompressedFetchPath fetch(cfg.icache, codec, mem,
                                            stats);
    DataPath data(cfg.dcache, mem, stats);
    if (const TraceBuffer *trace = replayTrace(bench, cfg, insns)) {
        TraceReplaySource src(*trace, bench.text());
        return OoOPipeline(cfg.pipeline, src, fetch, data, stats).run(insns);
    }
    Executor exec(bench.text(), mem);
    exec.reset(bench.program);
    return OoOPipeline(cfg.pipeline, exec, fetch, data, stats).run(insns);
}

std::string
fmtSpeedup(const RunOutcome &n, const RunOutcome &o)
{
    return TextTable::fmt(speedup(n, o), 3);
}

} // namespace

/**
 * Ablation across compression schemes (the paper's §2 related work,
 * quantified on our benchmarks): CodePack vs CCRP-style per-byte
 * Huffman lines vs Lefurgy'97 whole-instruction dictionary.
 *
 * Two views: static compression ratio (including each scheme's table
 * overheads) and end-to-end 4-issue performance relative to native
 * code, with every scheme's decompressor on the L1 miss path.
 *
 * Expected shape (paper §2): CCRP compresses worst once its LAT is
 * charged and decodes slowest (byte-serial Huffman); dict32 compresses
 * about as well as CodePack but needs a dictionary an order of
 * magnitude larger.
 */
TablePrinter
ablationCompressors(Matrix &m)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        m.add(bench, baseline4Issue(), Suite::runInsns());
        m.add(bench,
              baseline4Issue().withCodeModel(CodeModel::CodePackOptimized),
              Suite::runInsns());
    }

    return [](Matrix &m) {
        Suite &suite = Suite::instance();
        const std::vector<std::string> &names = suite.names();

        TextTable ratios;
        ratios.setTitle("Ablation A: compression ratio by scheme "
                        "(all overheads included)");
        ratios.addHeader({"Bench", "CodePack", "CCRP (byte Huffman)",
                          "dict32 (Lefurgy'97)", "dict32 entries"});

        TextTable perf;
        perf.setTitle("Ablation B: speedup over native (4-issue baseline "
                      "machine)");
        perf.addHeader({"Bench", "CodePack opt", "CCRP", "dict32"});

        // The codec fetch paths don't go through runMachine(), so the
        // CCRP and dict32 legs run on the pool directly: one task per
        // (benchmark, scheme) compresses the benchmark and simulates
        // it, writing only its own scheme's fields. The CodePack legs
        // are the plan's cells.
        struct SchemeCell
        {
            compress::CcrpImage ccrp;
            compress::Dict32Image d32;
            RunResult ccrpRun;
            RunResult d32Run;
        };
        std::vector<SchemeCell> cells(names.size());
        {
            ThreadPool pool;
            pool.parallelFor(2 * names.size(), [&](size_t task) {
                const BenchProgram &bench = suite.get(names[task / 2]);
                const std::vector<u32> words = textWords(bench.program);
                SchemeCell &cell = cells[task / 2];
                if (task % 2 == 0) {
                    cell.ccrp = compress::CcrpImage::compress(
                        words, bench.program.text.base);
                    cell.ccrpRun = runWithCodec(bench, cell.ccrp);
                } else {
                    cell.d32 = compress::Dict32Image::compress(
                        words, bench.program.text.base);
                    cell.d32Run = runWithCodec(bench, cell.d32);
                }
            });
        }

        for (size_t i = 0; i < names.size(); ++i) {
            const std::string &name = names[i];
            const BenchProgram &bench = suite.get(name);
            const SchemeCell &cell = cells[i];

            ratios.addRow(
                {name, TextTable::pct(bench.image.compressionRatio()),
                 TextTable::pct(cell.ccrp.compressionRatio()),
                 TextTable::pct(cell.d32.compressionRatio()),
                 TextTable::grouped(cell.d32.dictionaryEntries())});

            const CellOutcome &native = m.nextCell();
            const CellOutcome &cp_opt = m.nextCell();

            auto rel = [&native](const RunResult &r) {
                return native.status.ok()
                           ? TextTable::fmt(
                                 static_cast<double>(
                                     native.outcome.result.cycles) /
                                     static_cast<double>(r.cycles),
                                 3)
                           : failLabel(native.status);
            };
            perf.addRow({name, fmtCells(native, cp_opt, fmtSpeedup),
                         rel(cell.ccrpRun), rel(cell.d32Run)});
        }

        ratios.print();
        std::printf("\n");
        perf.print();
    };
}

/**
 * Extension experiment (paper §6 future work): completely
 * software-managed decompression. An I-cache miss traps to a handler on
 * the core that loads the index, DMAs the compressed block, decodes it
 * in software and returns. How attractive is that for "resource limited
 * computers", and how fast must the handler be to compete?
 *
 * Sweeps the handler's per-instruction decode cost on the 1-issue
 * embedded machine (speedup over native code); hardware baseline and
 * optimized decompressors shown for reference. The Reading line says
 * where software decompression is viable only when every benchmark
 * bears it out, and otherwise names the ones that break it.
 */
TablePrinter
extSoftwareDecompress(Matrix &m)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        m.add(bench, baseline1Issue(), Suite::runInsns());
        m.add(bench, baseline1Issue().withCodeModel(CodeModel::CodePack),
              Suite::runInsns());
        m.add(bench,
              baseline1Issue().withCodeModel(CodeModel::CodePackOptimized),
              Suite::runInsns());
        for (Cycle per_insn : {4u, 8u, 16u}) {
            MachineConfig cfg = baseline1Issue().withCodeModel(
                CodeModel::CodePackSoftware);
            cfg.software.cyclesPerInsn = per_insn;
            m.add(bench, cfg, Suite::runInsns());
        }
    }

    return [](Matrix &m) {
        TextTable t;
        t.setTitle("Extension: software-managed decompression "
                   "(speedup over native, 1-issue embedded machine)");
        t.addHeader({"Bench", "HW base", "HW opt", "SW 4 cyc/insn",
                     "SW 8 cyc/insn", "SW 16 cyc/insn"});

        // The claim: codes whose native I-miss rate is below 1% stay
        // within 3% of native even at 16 cyc/insn, and every other one
        // loses 40% or more even at 4 cyc/insn.
        std::string low, breaks;
        for (const std::string &name : Suite::instance().names()) {
            const CellOutcome &native = m.nextCell();
            const CellOutcome &hw_base = m.nextCell();
            const CellOutcome &hw_opt = m.nextCell();
            std::vector<std::string> row{
                name, fmtCells(native, hw_base, fmtSpeedup),
                fmtCells(native, hw_opt, fmtSpeedup)};
            bool ok = native.status.ok();
            for (size_t i = 0; i < 3; ++i) {
                const CellOutcome &sw = m.nextCell();
                ok = ok && sw.status.ok();
                row.push_back(fmtCells(native, sw, fmtSpeedup));
            }
            t.addRow(row);
            // A failed cell leaves nothing to judge; the plan reports
            // it.
            if (!ok)
                continue;

            // Judged on the speedup as printed, so the line cannot
            // contradict the table.
            const double miss = native.outcome.icacheMissRate;
            const bool low_miss = miss < 0.01;
            const std::string &shown = low_miss ? row[5] : row[3];
            if (low_miss)
                low += strfmt("%s%s", low.empty() ? "" : ", ",
                              name.c_str());
            if (low_miss ? std::stod(shown) < 0.97
                         : std::stod(shown) > 0.60)
                breaks += strfmt("\n  %s: I-miss %.2f%%, %s at %s cyc/insn",
                                 name.c_str(), miss * 100, shown.c_str(),
                                 low_miss ? "16" : "4");
        }
        t.print();

        if (!breaks.empty())
            std::printf("\nReading: the split between low-miss codes "
                        "(native I-miss below 1%%, within 3%%\nof native "
                        "at 16 cyc/insn) and the rest (losing 40%% or "
                        "more at 4 cyc/insn)\ndoes NOT hold for:%s\n",
                        breaks.c_str());
        else if (m.failedCount() == 0)
            std::printf("\nReading: software decompression is viable "
                        "exactly where the paper suggests.\nLow-miss "
                        "codes (native I-miss below 1%%): %s.\nEven at 16 "
                        "cyc/insn they stay within 3%% of native, while "
                        "every other benchmark\nloses 40%% or more even "
                        "at 4 cyc/insn, as the handler overhead "
                        "multiplies\nevery miss.\n",
                        low.empty() ? "none" : low.c_str());
    };
}

/**
 * Extension experiment: is CodePack's speedup "just prefetching"?
 *
 * The paper attributes part of the optimized decompressor's win to its
 * implicit block prefetch ("CodePack implements prefetching behavior
 * that the underlying processor does not have"). Here native code gets a
 * sequential next-line prefetcher of its own, so the four-way
 * comparison separates the bandwidth effect of compression from the
 * prefetching effect:
 *
 *   native | native+prefetch | CodePack optimized     (4-issue)
 *
 * If compression itself matters, optimized CodePack should keep an edge
 * over native+prefetch on narrow/slow memory systems even though both
 * now prefetch. The Reading line says so only when every benchmark
 * bears it out, and otherwise names the ones that break it.
 */
TablePrinter
extPrefetch(Matrix &m)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        for (unsigned bus : {64u, 16u}) {
            MachineConfig native = baseline4Issue();
            native.mem.busWidthBits = bus;
            m.add(bench, native, Suite::runInsns());
            m.add(bench, native.withCodeModel(CodeModel::NativePrefetch),
                  Suite::runInsns());
            m.add(bench,
                  native.withCodeModel(CodeModel::CodePackOptimized),
                  Suite::runInsns());
        }
    }

    return [](Matrix &m) {
        TextTable t;
        t.setTitle("Extension: native next-line prefetch vs CodePack "
                   "(speedup over plain native, 4-issue)");
        t.addHeader({"Bench", "Native+prefetch (64b)", "CP opt (64b)",
                     "Native+prefetch (16b)", "CP opt (16b)"});

        // The claim: optimized CodePack beats native+prefetch at both
        // bus widths, and by more at 16 b. It is judged on the speedups
        // as printed, in thousandths, so it cannot contradict the table.
        auto milli = [](const std::string &shown) {
            return std::lround(std::stod(shown) * 1000);
        };
        std::string breaks;
        for (const std::string &name : Suite::instance().names()) {
            std::vector<std::string> row{name};
            long lead[2] = {}; // CP opt minus native+prefetch
            bool ok = true;
            for (size_t i = 0; i < 2; ++i) {
                const CellOutcome &rn = m.nextCell();
                const CellOutcome &rp = m.nextCell();
                const CellOutcome &ro = m.nextCell();
                row.push_back(fmtCells(rn, rp, fmtSpeedup));
                row.push_back(fmtCells(rn, ro, fmtSpeedup));
                ok = ok && rn.status.ok() && rp.status.ok() &&
                     ro.status.ok();
                if (ok)
                    lead[i] =
                        milli(row.back()) - milli(row[row.size() - 2]);
            }
            t.addRow(row);
            // A failed cell leaves nothing to judge; the plan reports
            // it.
            if (ok && !(lead[0] > 0 && lead[1] > lead[0]))
                breaks += strfmt("\n  %s: lead %+.3f at 64 b, %+.3f at 16 b",
                                 name.c_str(), lead[0] / 1000.0,
                                 lead[1] / 1000.0);
        }
        t.print();

        if (!breaks.empty())
            std::printf("\nReading: optimized CodePack does NOT beat "
                        "native+prefetch at both bus widths,\nby more at "
                        "16 b, on:%s\n",
                        breaks.c_str());
        else if (m.failedCount() == 0)
            std::printf("\nReading: optimized CodePack beats "
                        "native+prefetch on every benchmark at both\nbus "
                        "widths, and by more at 16 b: prefetching alone "
                        "does not explain its win;\ncompression's "
                        "bandwidth advantage is doing real work.\n");
    };
}

namespace
{

std::string
avgMissLatency(const RunOutcome &out)
{
    if (out.icacheMisses == 0)
        return "-";
    double avg = static_cast<double>(out.missLatencyTotal) /
                 static_cast<double>(out.icacheMisses);
    return TextTable::fmt(avg, 1);
}

/** The columns Figure 2 anchors, and its single-event latency for each. */
constexpr const char *kAnchored[] = {"Native", "CodePack"};
constexpr double kAnchorCycles[] = {10, 25};

/**
 * Where one column's averages sit against its anchor. @p avgs are the
 * figures as printed, so the note cannot contradict the table.
 */
std::string
againstAnchor(const char *column, double anchor,
              const std::vector<double> &avgs)
{
    if (avgs.empty())
        return strfmt("%s: no misses to average.", column);
    auto [lo, hi] = std::minmax_element(avgs.begin(), avgs.end());
    const char *where = *hi < anchor   ? "below"
                        : *lo > anchor ? "above"
                                       : "around";
    return strfmt("%s averages %.1f-%.1f cycles: %s its anchor.", column,
                  *lo, *hi, where);
}

} // namespace

/**
 * Extension experiment: the steady-state version of Figure 2 — the
 * average critical-word latency of an I-cache miss under each code
 * model on the 4-issue baseline. This is the per-miss cost the paper's
 * Figure 2 illustrates for a single event, measured over every miss of
 * a full run (output-buffer hits and index-cache hits included). The
 * note under the table places each anchored column's averages against
 * Figure 2's single-event latency, from the numbers above it.
 */
TablePrinter
extMissLatency(Matrix &m)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        m.add(bench, baseline4Issue(), Suite::runInsns());
        m.add(bench, baseline4Issue().withCodeModel(CodeModel::CodePack),
              Suite::runInsns());
        m.add(bench,
              baseline4Issue().withCodeModel(CodeModel::CodePackOptimized),
              Suite::runInsns());
        m.add(bench,
              baseline4Issue().withCodeModel(CodeModel::CodePackSoftware),
              Suite::runInsns());
    }

    return [](Matrix &m) {
        TextTable t;
        t.setTitle("Extension: average critical-word I-miss latency in "
                   "cycles (4-issue; Figure 2 over a full run)");
        t.addHeader({"Bench", "Native", "CodePack", "Optimized",
                     "Software (8 cyc/insn)"});

        std::vector<double> avgs[std::size(kAnchored)];
        for (const std::string &name : Suite::instance().names()) {
            std::vector<std::string> row{name};
            for (size_t col = 0; col < 4; ++col) {
                const CellOutcome &c = m.nextCell();
                row.push_back(fmtCell(c, avgMissLatency));
                if (col < std::size(kAnchored) && c.status.ok() &&
                    c.outcome.icacheMisses > 0)
                    avgs[col].push_back(std::stod(row.back()));
            }
            t.addRow(row);
        }
        t.print();

        std::printf("\n(Single-event anchors from Figure 2: native 10, "
                    "baseline CodePack 25 on an\nindex miss. Output-buffer "
                    "hits and index-cache hits cost less than an index\n"
                    "miss.)\n");
        for (size_t col = 0; col < std::size(kAnchored); ++col)
            std::printf("%s\n",
                        againstAnchor(kAnchored[col], kAnchorCycles[col],
                                      avgs[col])
                            .c_str());
    };
}

namespace
{

/** Everything one benchmark contributes to the three tables. */
struct Accounting
{
    std::vector<std::string> zeroRow;
    std::vector<std::string> escapeRow;
    std::vector<std::string> bankRow;
};

Accounting
account(const std::string &name, const BenchProgram &bench)
{
    using codepack::HalfEncoding;
    const codepack::CompressedImage &img = bench.image;
    const Program &prog = bench.program;

    // Recount halfword traffic against the shipped dictionaries.
    u64 lo_zero = 0, total = 0;
    u64 hi_bank[5] = {}; // 4 banks + raw
    u64 lo_bank[4] = {}; // 3 banks + raw
    for (size_t i = 0; i < prog.textWords(); ++i) {
        u32 w = prog.word(i);
        u16 hi = static_cast<u16>(w >> 16);
        u16 lo = static_cast<u16>(w & 0xffff);
        ++total;
        HalfEncoding he = img.highDict.encode(hi);
        ++hi_bank[he.raw ? 4 : he.bank];
        HalfEncoding le = img.lowDict.encode(lo);
        if (le.zeroSpecial)
            ++lo_zero;
        else
            ++lo_bank[le.raw ? 3 : le.bank];
    }

    Accounting out;

    // A: what would lo==0 cost through bank 0 (6-bit codeword)?
    u64 saved_bits = lo_zero * (6 - 2);
    double ratio_delta = static_cast<double>(saved_bits) / 8.0 /
                         static_cast<double>(img.origTextBytes);
    out.zeroRow = {name,
                   TextTable::pct(static_cast<double>(lo_zero) /
                                  static_cast<double>(total)),
                   TextTable::grouped(saved_bits),
                   strfmt("-%.2f points", 100.0 * ratio_delta)};

    // B: recompress without the escape.
    u64 raw_blocks = 0;
    for (const codepack::BlockExtent &b : img.blocks)
        raw_blocks += b.raw;
    codepack::CompressorConfig no_escape;
    no_escape.allowRawBlocks = false;
    codepack::CompressedImage without = codepack::compressWords(
        textWords(prog), prog.text.base, no_escape);
    out.escapeRow = {name, TextTable::grouped(raw_blocks),
                     TextTable::pct(img.compressionRatio()),
                     TextTable::pct(without.compressionRatio())};

    // C: bank capture shares.
    auto pct = [&](u64 n) {
        return TextTable::pct(static_cast<double>(n) /
                              static_cast<double>(total));
    };
    out.bankRow = {name,          pct(hi_bank[0]), pct(hi_bank[1]),
                   pct(hi_bank[2]), pct(hi_bank[3]), pct(hi_bank[4]),
                   pct(lo_zero),  pct(lo_bank[0]), pct(lo_bank[1]),
                   pct(lo_bank[2]), pct(lo_bank[3])};
    return out;
}

} // namespace

/**
 * Extension experiment: accounting for CodePack's individual design
 * choices, per benchmark:
 *
 *   - the 2-bit codeword for the low halfword 0 (vs spending a normal
 *     bank-0 codeword on it),
 *   - the raw-block escape (vs compressing expanding blocks anyway),
 *   - dictionary bank utilization (how full each bank is and what share
 *     of halfwords it captures).
 *
 * These are the "ablation benches for the design choices DESIGN.md
 * calls out".
 */
TablePrinter
extDesignAccounting(Matrix &)
{
    Suite::instance().pregenerate();

    return [](Matrix &) {
        Suite &suite = Suite::instance();
        const std::vector<std::string> &names = suite.names();

        TextTable zero;
        zero.setTitle("Design choice A: the 2-bit low-zero codeword");
        zero.addHeader({"Bench", "lo==0 share", "bits saved",
                        "ratio delta"});

        TextTable escape;
        escape.setTitle("Design choice B: the raw-block escape");
        escape.addHeader({"Bench", "raw blocks", "ratio with escape",
                          "ratio without"});

        TextTable banks;
        banks.setTitle("Design choice C: dictionary bank capture "
                       "(share of all halfwords)");
        banks.addHeader({"Bench", "hi b0", "hi b1", "hi b2", "hi b3",
                         "hi raw", "lo zero", "lo b0", "lo b1", "lo b2",
                         "lo raw"});

        std::vector<Accounting> acct(names.size());
        {
            ThreadPool pool;
            pool.parallelFor(names.size(), [&](size_t i) {
                acct[i] = account(names[i], suite.get(names[i]));
            });
        }

        for (const Accounting &a : acct) {
            zero.addRow(a.zeroRow);
            escape.addRow(a.escapeRow);
            banks.addRow(a.bankRow);
        }

        zero.print();
        std::printf("\n");
        escape.print();
        std::printf("\n");
        banks.print();
    };
}

/**
 * Extension experiment: I-cache replacement policy (LRU / FIFO /
 * random). The paper's machines are all 2-way LRU; this sweep shows how
 * robust the CodePack comparison is to that choice — the miss *rate*
 * moves with policy, but the native-vs-compressed relation barely does
 * (both sides see the same miss stream).
 */
TablePrinter
extReplacement(Matrix &m)
{
    static constexpr ReplPolicy policies[] = {
        ReplPolicy::Lru, ReplPolicy::Fifo, ReplPolicy::Random};

    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        for (ReplPolicy policy : policies) {
            MachineConfig native = baseline4Issue();
            native.icache = CacheConfig{4 * 1024, 32, 2, policy};
            m.add(bench, native, Suite::runInsns());
            m.add(bench,
                  native.withCodeModel(CodeModel::CodePackOptimized),
                  Suite::runInsns());
        }
    }

    return [](Matrix &m) {
        TextTable t;
        t.setTitle("Extension: I-cache replacement policy "
                   "(4-issue, 4KB 2-way I-cache)");
        t.addHeader({"Bench", "LRU miss", "LRU CPopt", "FIFO miss",
                     "FIFO CPopt", "rand miss", "rand CPopt"});

        for (const std::string &name : Suite::instance().names()) {
            std::vector<std::string> row{name};
            for (size_t i = 0; i < std::size(policies); ++i) {
                const CellOutcome &rn = m.nextCell();
                const CellOutcome &ro = m.nextCell();
                row.push_back(fmtCell(rn, [](const RunOutcome &o) {
                    return TextTable::pct(o.icacheMissRate);
                }));
                row.push_back(fmtCells(rn, ro, fmtSpeedup));
            }
            t.addRow(row);
        }
        t.print();
    };
}

namespace
{

/** One reseeded 'go' program. cellKey names a cell's program by its
 *  profile, so the program points at its own reseeded copy. */
struct Reroll
{
    BenchmarkProfile profile;
    BenchProgram bench;
};

void
reroll(Reroll &r, u64 seed)
{
    r.profile = findProfile("go");
    r.profile.seed = seed;
    r.bench.profile = &r.profile;
    r.bench.program = generateProgram(r.profile);
    r.bench.image = codepack::compress(r.bench.program);
}

std::string
rangeOf(std::vector<double> v, bool pct)
{
    auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    if (pct)
        return strfmt("%.1f%% .. %.1f%%", *lo * 100, *hi * 100);
    return strfmt("%.3f .. %.3f", *lo, *hi);
}

} // namespace

/**
 * Extension experiment: seed robustness. Our benchmarks are synthetic;
 * a fair question is whether the headline comparisons depend on the
 * particular random program the generator emitted. This table re-rolls
 * the 'go' profile under several seeds and reports the spread of the
 * compression ratio, I-miss rate, and the three headline speedups,
 * then checks the paper's qualitative claim (baseline CodePack <= 1.0
 * < optimized) seed by seed and names every seed that breaks it.
 */
TablePrinter
extSeedRobustness(Matrix &m)
{
    static constexpr u64 seeds[] = {0x60, 0xbeef, 0x1234, 0xabcd,
                                    0x42424242};
    constexpr size_t nseeds = std::size(seeds);
    const u64 insns = Suite::runInsns() / 2; // 5 seeds: keep it modest

    // Program generation is independent per seed; build all five in
    // parallel. The requests point into `rolls`, which the printer
    // keeps alive, at fixed addresses, for as long as the plan runs.
    auto rolls = std::make_shared<std::vector<Reroll>>(nseeds);
    {
        ThreadPool pool;
        pool.parallelFor(nseeds,
                         [&](size_t i) { reroll((*rolls)[i], seeds[i]); });
    }
    for (const Reroll &r : *rolls) {
        m.add(r.bench, baseline4Issue(), insns);
        m.add(r.bench, baseline4Issue().withCodeModel(CodeModel::CodePack),
              insns);
        m.add(r.bench,
              baseline4Issue().withCodeModel(CodeModel::CodePackOptimized),
              insns);
    }

    return [rolls](Matrix &m) {
        std::vector<double> ratio, miss, cp, opt;
        std::string broken; // seeds whose speedups break the claim
        for (size_t i = 0; i < nseeds; ++i) {
            const CellOutcome &cn = m.nextCell();
            const CellOutcome &cc = m.nextCell();
            const CellOutcome &co = m.nextCell();
            // A failed seed can't contribute to a range; the plan
            // turns the omission into a diagnosable nonzero exit.
            if (!cn.status.ok() || !cc.status.ok() || !co.status.ok())
                continue;
            ratio.push_back((*rolls)[i].bench.image.compressionRatio());
            miss.push_back(cn.outcome.icacheMissRate);
            cp.push_back(speedup(cn.outcome, cc.outcome));
            opt.push_back(speedup(cn.outcome, co.outcome));
            if (!(cp.back() <= 1.0 && opt.back() > 1.0))
                broken +=
                    strfmt("%s0x%llx", broken.empty() ? "" : ", ",
                           static_cast<unsigned long long>(seeds[i]));
        }

        auto range = [&](const std::vector<double> &v, bool pct) {
            return v.empty() ? std::string("FAILED(no surviving seeds)")
                             : rangeOf(v, pct);
        };
        TextTable t;
        t.setTitle("Extension: seed robustness ('go' profile, 5 seeds, "
                   "4-issue)");
        t.addHeader({"Metric", "Range across seeds"});
        t.addRow({"compression ratio", range(ratio, true)});
        t.addRow({"I-miss rate", range(miss, true)});
        t.addRow({"CodePack speedup", range(cp, false)});
        t.addRow({"Optimized speedup", range(opt, false)});
        t.print();

        if (m.failedCount() != 0)
            std::printf("\n%u cell(s) failed; ranges cover %zu of %zu "
                        "seeds.\n",
                        m.failedCount(), ratio.size(), nseeds);
        if (!broken.empty())
            std::printf("\nThe qualitative conclusions (baseline <= 1.0 < "
                        "optimized) do not hold for seed(s) %s.\n",
                        broken.c_str());
        else if (m.failedCount() == 0)
            std::printf("\nThe qualitative conclusions (baseline <= 1.0 < "
                        "optimized) hold for every seed.\n");
    };
}

} // namespace harness
} // namespace cps
