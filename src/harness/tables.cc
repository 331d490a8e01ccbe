#include "tables.hh"

#include <cstdio>
#include <iterator>
#include <unordered_map>

#include "codepack/timing.hh"
#include "common/table.hh"
#include "ext_tables.hh"

namespace cps
{
namespace harness
{

namespace
{

/**
 * Table 1: benchmark characteristics — dynamic instruction counts and
 * the L1 I-cache miss rate on the 4-issue baseline machine.
 *
 * Paper values (for reference): cc1 6.7%, go 6.2%, mpeg2enc 0.0%,
 * pegwit 0.1%, perl 4.4%, vortex 4.6%. The paper ran >1e9 instructions;
 * our synthetic workloads are steady within the (configurable) default
 * run length.
 */
TablePrinter
table1(Matrix &m)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names())
        m.add(suite.get(name), baseline4Issue(), Suite::runInsns());

    return [](Matrix &m) {
        Suite &suite = Suite::instance();
        TextTable t;
        t.setTitle("Table 1: Benchmarks (4-issue baseline, " +
                   TextTable::grouped(Suite::runInsns()) + " insns/run)");
        t.addHeader({"Bench", "Insns executed", "Static text (KB)",
                     "L1 I-miss rate", "Paper I-miss"});

        const char *paper_miss[] = {"6.7%", "6.2%", "0.0%",
                                    "0.1%", "4.4%", "4.6%"};
        int row = 0;
        for (const std::string &name : suite.names()) {
            const BenchProgram &bench = suite.get(name);
            const CellOutcome &cell = m.nextCell();
            const RunOutcome &out = cell.outcome;
            t.addRow({name,
                      cell.status.ok()
                          ? TextTable::grouped(out.result.instructions)
                          : failLabel(cell.status),
                      TextTable::fmt(
                          bench.program.text.bytes.size() / 1024.0, 1),
                      cell.status.ok() ? TextTable::pct(out.icacheMissRate)
                                       : failLabel(cell.status),
                      paper_miss[row++]});
        }
        t.print();
    };
}

/**
 * Table 3: compression ratio of the .text section (compressed size
 * includes index table and dictionaries, per Eq. 1 of the paper).
 *
 * Paper values: cc1 60.5%, go 58.9%, mpeg2enc 63.1%, pegwit 61.1%,
 * perl 60.6%, vortex 55.4% (sizes as printed in Table 3).
 */
TablePrinter
table3(Matrix &)
{
    Suite::instance().pregenerate();
    return [](Matrix &) {
        Suite &suite = Suite::instance();
        TextTable t;
        t.setTitle("Table 3: Compression ratio of .text section");
        t.addHeader({"Bench", "Original (bytes)", "Compressed (bytes)",
                     "Ratio (smaller is better)", "Paper ratio"});

        const char *paper[] = {"60.5%", "58.9%", "63.1%",
                               "61.1%", "60.6%", "55.4%"};
        int row = 0;
        for (const std::string &name : suite.names()) {
            const codepack::CompressedImage &img = suite.get(name).image;
            t.addRow({name, TextTable::grouped(img.origTextBytes),
                      TextTable::grouped(img.comp.totalBytes()),
                      TextTable::pct(img.compressionRatio()),
                      paper[row++]});
        }
        t.print();
    };
}

/**
 * Table 4: composition of the compressed region. Each column is the
 * share of the total compressed bits spent on the index table, the
 * dictionaries, compressed tags, dictionary indices, raw tags, raw
 * bits, and block-alignment padding.
 *
 * Paper shape: index table ~5%, dictionary 0.3-3.4%, compressed tags
 * 22-26%, dictionary indices 46-51%, raw tags 2.7-3.9%, raw bits
 * 14-21%, pad ~1.1%. The paper highlights that a "surprising" 19-25% of
 * the compressed program (raw tags + raw bits) is not compressed at all.
 */
TablePrinter
table4(Matrix &)
{
    Suite::instance().pregenerate();
    return [](Matrix &) {
        Suite &suite = Suite::instance();
        TextTable t;
        t.setTitle("Table 4: Composition of compressed region");
        t.addHeader({"Bench", "Index table", "Dictionary",
                     "Compressed tags", "Dict indices", "Raw tags",
                     "Raw bits", "Pad", "Total (bytes)"});

        for (const std::string &name : suite.names()) {
            const codepack::Composition &c = suite.get(name).image.comp;
            double total = static_cast<double>(c.totalBits());
            auto share = [&](u64 bits) {
                return TextTable::pct(static_cast<double>(bits) / total);
            };
            t.addRow({name, share(c.indexTableBits),
                      share(c.dictionaryBits), share(c.compressedTagBits),
                      share(c.dictIndexBits), share(c.rawTagBits),
                      share(c.rawBits), share(c.padBits),
                      TextTable::grouped(c.totalBytes())});
        }
        t.addRule();
        t.addRow({"(paper)", "5.0-5.6%", "0.3-3.4%", "21.9-26.3%",
                  "46.0-50.9%", "2.7-3.9%", "14.2-20.9%", "1.1-1.2%", ""});
        t.print();
    };
}

/**
 * Table 5: instructions per cycle for Native, baseline CodePack and
 * optimized CodePack on the three Table 2 machines, printed after the
 * Table 2 machine configurations.
 *
 * Paper shape: the performance loss of baseline CodePack vs native is
 * < 14% (1-issue), < 18% (4-issue), < 13% (8-issue); the optimized
 * decompressor is within a few percent of native and sometimes faster;
 * mpeg2enc/pegwit barely move.
 */
TablePrinter
table5(Matrix &m)
{
    const MachineConfig machines[] = {baseline1Issue(), baseline4Issue(),
                                      baseline8Issue()};
    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names())
        for (const MachineConfig &machine : machines)
            for (CodeModel model :
                 {CodeModel::Native, CodeModel::CodePack,
                  CodeModel::CodePackOptimized})
                m.add(suite.get(name), machine.withCodeModel(model),
                      Suite::runInsns());

    return [](Matrix &m) {
        TextTable t2;
        t2.setTitle("Table 2: Simulated architectures (configuration)");
        t2.addHeader({"Parameter", "1-issue", "4-issue", "8-issue"});
        t2.addRow({"issue", "1 in-order", "4 out-of-order",
                   "8 out-of-order"});
        t2.addRow({"RUU entries", "8", "64", "128"});
        t2.addRow({"load/store queue", "4", "32", "64"});
        t2.addRow({"int ALUs", "1", "4", "8"});
        t2.addRow({"mem ports", "1", "2", "2"});
        t2.addRow({"branch pred", "bimodal 2048", "gshare 14-bit",
                   "hybrid 1024-meta"});
        t2.addRow({"L1 I-cache", "8KB 32B 2-way", "16KB 32B 2-way",
                   "32KB 32B 2-way"});
        t2.addRow({"L1 D-cache", "8KB 16B 2-way", "16KB 16B 2-way",
                   "32KB 16B 2-way"});
        t2.addRow({"memory", "10 cyc, 2 cyc rate, 64-bit", "same", "same"});
        t2.print();
        std::printf("\n");

        TextTable t;
        t.setTitle("Table 5: Instructions per cycle");
        t.addHeader({"Bench", "1i Native", "1i CodePack", "1i Optimized",
                     "4i Native", "4i CodePack", "4i Optimized",
                     "8i Native", "8i CodePack", "8i Optimized"});
        for (const std::string &name : Suite::instance().names()) {
            std::vector<std::string> row{name};
            for (size_t i = 0; i < 9; ++i)
                row.push_back(m.fmtNext([](const RunOutcome &o) {
                    return TextTable::fmt(o.result.ipc(), 3);
                }));
            t.addRow(row);
        }
        t.print();
    };
}

/**
 * Table 6: index-cache miss ratio for cc1 on the 4-issue machine,
 * sweeping fully-associative geometries (number of lines x index
 * entries per line). The paper's pick: 64 lines x 4 indexes gets cc1
 * under 15% (and the other benchmarks far lower).
 */
TablePrinter
table6(Matrix &m)
{
    static constexpr unsigned lines[] = {4, 16, 32, 64};
    static constexpr unsigned per_line[] = {1, 2, 4, 8};

    const BenchProgram &bench = Suite::instance().get("cc1");
    for (unsigned nl : lines) {
        for (unsigned ipl : per_line) {
            MachineConfig cfg = baseline4Issue();
            cfg.codeModel = CodeModel::CodePackCustom;
            cfg.decomp.indexCacheLines = nl;
            cfg.decomp.indexesPerLine = ipl;
            cfg.decomp.burstIndexFill = true;
            m.add(bench, cfg, Suite::runInsns());
        }
    }

    return [](Matrix &m) {
        TextTable t;
        t.setTitle("Table 6: Index cache miss ratio for cc1 "
                   "(during L1 misses, 4-issue, fully associative)");
        t.addHeader({"Lines \\ idx/line", "1", "2", "4", "8"});
        for (unsigned nl : lines) {
            std::vector<std::string> row{TextTable::grouped(nl)};
            for (size_t i = 0; i < std::size(per_line); ++i)
                row.push_back(m.fmtNext([](const RunOutcome &o) {
                    return TextTable::pct(o.indexCacheMissRate);
                }));
            t.addRow(row);
        }
        t.addRule();
        t.addRow({"(paper, 64x4)", "", "", "< 15%", ""});
        t.print();
    };
}

/** One column of a speedup table: a machine running native code, and
 *  the variant whose speedup over it the column prints. */
using SpeedupColumn = std::pair<MachineConfig, MachineConfig>;

/**
 * Declares, per benchmark and column, the native and variant cells of
 * a speedup-over-native table, and returns the printer of
 * cycles(native) / cycles(variant). Columns that share a native
 * machine ask for its cell again; the plan runs it once.
 */
TablePrinter
speedupTable(Matrix &m, std::string title, std::vector<std::string> header,
             const std::vector<SpeedupColumn> &columns)
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    for (const std::string &name : suite.names()) {
        for (const auto &[native, variant] : columns) {
            m.add(suite.get(name), native, Suite::runInsns());
            m.add(suite.get(name), variant, Suite::runInsns());
        }
    }

    return [title = std::move(title), header = std::move(header),
            ncols = columns.size()](Matrix &m) {
        TextTable t;
        t.setTitle(title);
        t.addHeader(header);
        for (const std::string &name : Suite::instance().names()) {
            std::vector<std::string> row{name};
            for (size_t i = 0; i < ncols; ++i) {
                const CellOutcome &native = m.nextCell();
                row.push_back(fmtCells(
                    native, m.nextCell(),
                    [](const RunOutcome &n, const RunOutcome &o) {
                        return TextTable::fmt(speedup(n, o), 3);
                    }));
            }
            t.addRow(row);
        }
        t.print();
    };
}

/** The CodePack and optimized columns over @p native. */
void
addCodePackColumns(std::vector<SpeedupColumn> &columns,
                   const MachineConfig &native)
{
    columns.push_back({native, native.withCodeModel(CodeModel::CodePack)});
    columns.push_back(
        {native, native.withCodeModel(CodeModel::CodePackOptimized)});
}

/** The 4-issue machine with the paper's 64x4 index cache. */
MachineConfig
indexCache64x4()
{
    MachineConfig cfg = baseline4Issue();
    cfg.codeModel = CodeModel::CodePackCustom;
    cfg.decomp.indexCacheLines = 64;
    cfg.decomp.indexesPerLine = 4;
    cfg.decomp.burstIndexFill = true;
    return cfg;
}

/**
 * Table 7: speedup over native code from the index-cache optimization
 * alone, on the 4-issue machine — baseline CodePack, a 64x4
 * fully-associative index cache, and a perfect index cache.
 *
 * Paper shape: the index cache recovers most of baseline CodePack's
 * loss; the perfect cache adds only a little more (its benefit is
 * bounded by how often indexes are re-fetched).
 */
TablePrinter
table7(Matrix &m)
{
    const MachineConfig native = baseline4Issue();
    MachineConfig perfect = native;
    perfect.codeModel = CodeModel::CodePackCustom;
    perfect.decomp.perfectIndexCache = true;
    return speedupTable(
        m, "Table 7: Speedup due to index cache (over native, 4-issue)",
        {"Bench", "CodePack", "Index Cache (64x4)", "Perfect"},
        {{native, native.withCodeModel(CodeModel::CodePack)},
         {native, indexCache64x4()},
         {native, perfect}});
}

/**
 * Table 8: speedup over native from widening the decoder alone (1 =
 * baseline, 2, and 16 decompressors per cycle; 16 is the fastest
 * possible since a block holds 16 instructions).
 *
 * Paper shape: most of the available benefit arrives with just 2
 * decoders; 16 adds almost nothing (fetch dominates decode).
 */
TablePrinter
table8(Matrix &m)
{
    std::vector<SpeedupColumn> columns;
    for (unsigned rate : {1u, 2u, 16u}) {
        MachineConfig cfg = baseline4Issue();
        cfg.codeModel = CodeModel::CodePackCustom;
        cfg.decomp = codepack::DecompressorConfig{}; // baseline idx
        cfg.decomp.decodeRate = rate;
        columns.push_back({baseline4Issue(), cfg});
    }
    return speedupTable(m,
                        "Table 8: Speedup due to decompression rate "
                        "(over native, 4-issue)",
                        {"Bench", "CodePack (1)", "2 decoders",
                         "16 decoders"},
                        columns);
}

/**
 * Table 9: the two optimizations individually and combined, as speedup
 * over native on the 4-issue machine.
 *
 * Paper shape: the index cache helps more than the wider decoder; both
 * together ("All") recover (and for go/perl/vortex slightly exceed)
 * native performance.
 */
TablePrinter
table9(Matrix &m)
{
    const MachineConfig native = baseline4Issue();
    MachineConfig decoders = native;
    decoders.codeModel = CodeModel::CodePackCustom;
    decoders.decomp.decodeRate = 2;
    return speedupTable(
        m,
        "Table 9: Comparison of optimizations "
        "(speedup over native, 4-issue)",
        {"Bench", "CodePack", "Index", "Decompress", "All"},
        {{native, native.withCodeModel(CodeModel::CodePack)},
         {native, indexCache64x4()},
         {native, decoders},
         {native, native.withCodeModel(CodeModel::CodePackOptimized)}});
}

/**
 * Table 10: sensitivity to I-cache size (1/4/16/64 KB) on the 4-issue
 * machine; speedup over native with the same cache.
 *
 * Paper shape: at 1KB the baseline decompressor loses up to 28% while
 * the optimized one gains up to 61% (it fills lines with fewer memory
 * accesses); both converge toward 1.0 as the cache grows and misses
 * disappear.
 */
TablePrinter
table10(Matrix &m)
{
    std::vector<SpeedupColumn> columns;
    for (u32 kb : {1u, 4u, 16u, 64u}) {
        MachineConfig native = baseline4Issue();
        native.icache = CacheConfig{kb * 1024, 32, 2};
        addCodePackColumns(columns, native);
    }
    return speedupTable(m,
                        "Table 10: Variation in speedup due to I-cache "
                        "size (over native with the same cache, 4-issue)",
                        {"Bench", "1KB CP", "1KB Opt", "4KB CP", "4KB Opt",
                         "16KB CP", "16KB Opt", "64KB CP", "64KB Opt"},
                        columns);
}

/**
 * Table 11: sensitivity to main-memory bus width (16/32/64/128 bits) on
 * the 4-issue machine; speedup over native with the same bus.
 *
 * Paper shape: compression wins on narrow buses (fewer bytes to move);
 * as the bus widens native code catches up and eventually wins (the
 * decompression latency stops being hidden by fetch).
 */
TablePrinter
table11(Matrix &m)
{
    std::vector<SpeedupColumn> columns;
    for (unsigned width : {16u, 32u, 64u, 128u}) {
        MachineConfig native = baseline4Issue();
        native.mem.busWidthBits = width;
        addCodePackColumns(columns, native);
    }
    return speedupTable(m,
                        "Table 11: Performance change by memory width "
                        "(speedup over native with the same bus, 4-issue)",
                        {"Bench", "16b CP", "16b Opt", "32b CP", "32b Opt",
                         "64b CP", "64b Opt", "128b CP", "128b Opt"},
                        columns);
}

/**
 * Table 12: sensitivity to main-memory latency (0.5x / 1x / 2x / 4x /
 * 8x of the baseline's 10-cycle first access, 2-cycle rate) on the
 * 4-issue machine; speedup over native with the same latency.
 *
 * Paper shape: as memory slows down the optimized decompressor pulls
 * ahead of native code — it needs fewer of the (now very expensive)
 * main-memory accesses.
 */
TablePrinter
table12(Matrix &m)
{
    struct Lat { const char *label; Cycle first; Cycle rate; };
    const Lat lats[] = {
        {"0.5x", 5, 1}, {"1x", 10, 2}, {"2x", 20, 4},
        {"4x", 40, 8}, {"8x", 80, 16},
    };

    std::vector<std::string> header{"Bench"};
    std::vector<SpeedupColumn> columns;
    for (const Lat &l : lats) {
        header.push_back(std::string(l.label) + " CP");
        header.push_back(std::string(l.label) + " Opt");
        MachineConfig native = baseline4Issue();
        native.mem.firstAccess = l.first;
        native.mem.beatRate = l.rate;
        addCodePackColumns(columns, native);
    }
    return speedupTable(m,
                        "Table 12: Performance change due to memory "
                        "latency (speedup over native with the same "
                        "latency, 4-issue)",
                        header, columns);
}

void
printTimeline(const char *label, const codepack::MissTrace &trace,
              const codepack::LineFill &fill)
{
    std::printf("%s\n", label);
    if (trace.bufferHit) {
        std::printf("  served from the 16-insn output buffer\n");
    } else {
        if (trace.indexPerfect || trace.indexHit)
            std::printf("  t=%3llu  index available (index cache hit)\n",
                        static_cast<unsigned long long>(trace.indexDone));
        else
            std::printf("  t=%3llu  index fetched from main memory\n",
                        static_cast<unsigned long long>(trace.indexDone));
        std::printf("  code beats arrive at:");
        for (Cycle c : trace.codeBeats)
            std::printf(" %llu", static_cast<unsigned long long>(c));
        std::printf("\n");
    }
    std::printf("  requested line words ready:");
    for (Cycle c : fill.wordReady)
        std::printf(" %llu", static_cast<unsigned long long>(c));
    std::printf("\n  critical word at t=%llu\n\n",
                static_cast<unsigned long long>(fill.wordReady[0]));
}

/**
 * Figure 2: the cycle-by-cycle timeline of a single L1 I-cache miss
 * under (a) native code with critical-word-first, (b) baseline CodePack
 * (index fetch, code fetch, 1 insn/cycle decode), and (c) optimized
 * CodePack (index-cache hit, 2 insns/cycle).
 *
 * The paper's example quotes: native critical word at t=10; baseline
 * CodePack critical instruction at t=25; optimized at t=14 (the precise
 * value depends on how codewords pack into bus beats).
 */
TablePrinter
fig2(Matrix &)
{
    return [](Matrix &) {
        using namespace codepack;
        const BenchProgram &bench = Suite::instance().get("go");
        const Addr miss_addr = bench.program.text.base; // line 0, word 0

        std::printf("Figure 2: L1 miss activity for one cache miss\n");
        std::printf("=============================================\n");
        std::printf("(memory: 10-cycle first access, 2-cycle rate, 64-bit "
                    "bus; miss at t=0)\n\n");

        // (a) native code with critical word first.
        {
            MainMemory mem;
            StatSet stats;
            NativeFetchPath fetch(CacheConfig{16 * 1024, 32, 2}, mem,
                                  stats);
            Cycle critical = fetch.fetchWord(miss_addr, 0);
            std::printf("(a) Native code\n");
            std::printf("  burst read, critical word first\n");
            std::printf("  critical word at t=%llu   (paper: t=10)\n\n",
                        static_cast<unsigned long long>(critical));
        }

        // (b) baseline CodePack.
        {
            MainMemory mem;
            StatSet stats;
            DecompressorModel model(bench.image, mem, DecompressorConfig{},
                                    stats);
            LineFill fill = model.handleMiss(miss_addr, 0);
            printTimeline("(b) CodePack baseline   (paper: critical insn "
                          "~t=25 on an index miss)",
                          model.lastTrace(), fill);
        }

        // (c) optimized CodePack: warm the index cache first, then miss.
        {
            MainMemory mem;
            StatSet stats;
            DecompressorModel model(bench.image, mem,
                                    DecompressorConfig::optimized(), stats);
            model.handleMiss(miss_addr + 64, 0); // warms index cache (blk 1)
            mem.resetTimingState();
            LineFill fill = model.handleMiss(miss_addr, 0);
            printTimeline("(c) CodePack optimized: index cache hit + 2 "
                          "decoders   (paper: ~t=14)",
                          model.lastTrace(), fill);
        }
    };
}

/** The tables cpstables knows, in the order --all prints them: the
 *  paper's, then the extensions (ext_tables.hh). */
struct NamedTable
{
    const char *name;
    TablePrinter (*spec)(Matrix &m);
};

constexpr NamedTable kTables[] = {
    {"table1", table1},   {"table3", table3},   {"table4", table4},
    {"table5", table5},   {"table6", table6},   {"table7", table7},
    {"table8", table8},   {"table9", table9},   {"table10", table10},
    {"table11", table11}, {"table12", table12}, {"fig2", fig2},
    {"ablation_compressors", ablationCompressors},
    {"ext_software_decompress", extSoftwareDecompress},
    {"ext_prefetch", extPrefetch},
    {"ext_miss_latency", extMissLatency},
    {"ext_design_accounting", extDesignAccounting},
    {"ext_replacement", extReplacement},
    {"ext_seed_robustness", extSeedRobustness},
};

} // namespace

PlanCounts
runPlan(const std::vector<TableSpec> &specs, unsigned threads)
{
    std::vector<Matrix> matrices(specs.size());
    std::vector<TablePrinter> printers;
    for (size_t t = 0; t < specs.size(); ++t)
        printers.push_back(specs[t](matrices[t]));

    // The union of every table's requests, one cell per distinct
    // cellKey, in first-request order; slots[t][i] is the cell of table
    // t's request i. An injected fault or a live soft-error domain
    // changes a cell's outcome but not its key, so such a request
    // keeps a cell of its own.
    PlanCounts counts;
    counts.tables = specs.size();
    Matrix unique;
    std::unordered_map<std::string, size_t> slotOfKey;
    std::vector<std::vector<size_t>> slots(specs.size());
    for (size_t t = 0; t < specs.size(); ++t) {
        for (const RunRequest &req : matrices[t].requests()) {
            ++counts.requested;
            size_t slot = unique.size();
            if (req.injectFault == CellFault::None &&
                req.cfg.decomp.softErrorDomain == nullptr)
                slot = slotOfKey.try_emplace(cellKey(req), slot)
                           .first->second;
            if (slot == unique.size())
                unique.add(req);
            slots[t].push_back(slot);
        }
    }

    unique.run(threads);
    for (size_t t = 0; t < specs.size(); ++t) {
        std::vector<CellOutcome> cells;
        for (size_t slot : slots[t])
            cells.push_back(unique.cell(slot));
        matrices[t].setCells(std::move(cells));
    }

    for (size_t t = 0; t < specs.size(); ++t) {
        if (t > 0)
            std::printf("\n");
        printers[t](matrices[t]);
    }
    std::fflush(stdout);

    unique.reportFailures();
    counts.unique = unique.size();
    counts.failed = unique.failedCount();
    for (size_t i = 0; i < unique.size(); ++i)
        counts.resumed += unique.cell(i).status.resumed;
    counts.executed = counts.unique - counts.resumed;
    std::fprintf(stderr,
                 "plan: %zu tables, %zu cells requested, %zu unique, "
                 "%zu executed, %zu resumed, %zu failed\n",
                 counts.tables, counts.requested, counts.unique,
                 counts.executed, counts.resumed, counts.failed);
    return counts;
}

int
runTables(const std::vector<std::string> &args)
{
    std::string error = "no table named";
    std::vector<TableSpec> specs;
    for (const std::string &arg : args) {
        const size_t before = specs.size();
        for (const NamedTable &nt : kTables)
            if (arg == "--all" || arg == nt.name)
                specs.push_back(nt.spec);
        if (specs.size() == before) {
            error = "unknown table '" + arg + "'";
            specs.clear();
            break;
        }
    }
    if (specs.empty()) {
        std::string names;
        for (const NamedTable &nt : kTables)
            names += std::string(" ") + nt.name;
        std::fprintf(stderr,
                     "cpstables: %s; usage: cpstables <name>...|--all "
                     "with <name> one of:%s\n",
                     error.c_str(), names.c_str());
        return 2;
    }
    return runPlan(specs).failed == 0 ? 0 : 1;
}

} // namespace harness
} // namespace cps
