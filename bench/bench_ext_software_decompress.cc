/**
 * @file
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

#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/table.hh"
#include "harness/engine.hh"

using namespace cps;

int
main()
{
    u64 insns = Suite::runInsns();
    Suite &suite = Suite::instance();
    suite.pregenerate();

    TextTable t;
    t.setTitle("Extension: software-managed decompression "
               "(speedup over native, 1-issue embedded machine)");
    t.addHeader({"Bench", "HW base", "HW opt", "SW 4 cyc/insn",
                 "SW 8 cyc/insn", "SW 16 cyc/insn"});

    harness::Matrix m;
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        m.add(bench, baseline1Issue(), insns);
        m.add(bench, baseline1Issue().withCodeModel(CodeModel::CodePack),
              insns);
        m.add(bench,
              baseline1Issue().withCodeModel(CodeModel::CodePackOptimized),
              insns);
        for (Cycle per_insn : {4u, 8u, 16u}) {
            MachineConfig cfg = baseline1Issue().withCodeModel(
                CodeModel::CodePackSoftware);
            cfg.software.cyclesPerInsn = per_insn;
            m.add(bench, cfg, insns);
        }
    }
    m.run();

    auto fmtSpd = [](const RunOutcome &n, const RunOutcome &o) {
        return TextTable::fmt(speedup(n, o), 3);
    };
    // The claim: codes whose native I-miss rate is below 1% stay within
    // 3% of native even at 16 cyc/insn, and every other one loses 40% or
    // more even at 4 cyc/insn.
    std::string low, breaks;
    for (const std::string &name : suite.names()) {
        harness::CellOutcome native = m.nextCell();
        harness::CellOutcome hw_base = m.nextCell();
        harness::CellOutcome hw_opt = m.nextCell();
        std::vector<std::string> row{
            name, harness::fmtCells(native, hw_base, fmtSpd),
            harness::fmtCells(native, hw_opt, fmtSpd)};
        bool ok = native.status.ok();
        for (size_t i = 0; i < 3; ++i) {
            harness::CellOutcome sw = m.nextCell();
            ok = ok && sw.status.ok();
            row.push_back(harness::fmtCells(native, sw, fmtSpd));
        }
        t.addRow(row);
        // A failed cell leaves nothing to judge; exitSummary() reports it.
        if (!ok)
            continue;

        // Judged on the speedup as printed, so the line cannot
        // contradict the table.
        const double miss = native.outcome.icacheMissRate;
        const bool low_miss = miss < 0.01;
        const std::string &shown = low_miss ? row[5] : row[3];
        if (low_miss)
            low += strfmt("%s%s", low.empty() ? "" : ", ", name.c_str());
        if (low_miss ? std::stod(shown) < 0.97 : std::stod(shown) > 0.60)
            breaks += strfmt("\n  %s: I-miss %.2f%%, %s at %s cyc/insn",
                             name.c_str(), miss * 100, shown.c_str(),
                             low_miss ? "16" : "4");
    }
    t.print();

    if (!breaks.empty())
        std::printf("\nReading: the split between low-miss codes (native "
                    "I-miss below 1%%, within 3%%\nof native at 16 "
                    "cyc/insn) and the rest (losing 40%% or more at 4 "
                    "cyc/insn)\ndoes NOT hold for:%s\n",
                    breaks.c_str());
    else if (m.failedCount() == 0)
        std::printf("\nReading: software decompression is viable exactly "
                    "where the paper suggests.\nLow-miss codes (native "
                    "I-miss below 1%%): %s.\nEven at 16 cyc/insn they "
                    "stay within 3%% of native, while every other "
                    "benchmark\nloses 40%% or more even at 4 cyc/insn, "
                    "as the handler overhead multiplies\nevery miss.\n",
                    low.empty() ? "none" : low.c_str());
    return m.exitSummary();
}
