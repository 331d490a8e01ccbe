/**
 * @file
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

#include <cmath>
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
    t.setTitle("Extension: native next-line prefetch vs CodePack "
               "(speedup over plain native, 4-issue)");
    t.addHeader({"Bench", "Native+prefetch (64b)", "CP opt (64b)",
                 "Native+prefetch (16b)", "CP opt (16b)"});

    harness::Matrix m;
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        for (unsigned bus : {64u, 16u}) {
            MachineConfig native = baseline4Issue();
            native.mem.busWidthBits = bus;
            m.add(bench, native, insns);
            m.add(bench, native.withCodeModel(CodeModel::NativePrefetch),
                  insns);
            m.add(bench,
                  native.withCodeModel(CodeModel::CodePackOptimized),
                  insns);
        }
    }
    m.run();

    auto fmtSpd = [](const RunOutcome &n, const RunOutcome &o) {
        return TextTable::fmt(speedup(n, o), 3);
    };
    // The claim: optimized CodePack beats native+prefetch at both bus
    // widths, and by more at 16 b. It is judged on the speedups as
    // printed, in thousandths, so it cannot contradict the table.
    auto milli = [](const std::string &shown) {
        return std::lround(std::stod(shown) * 1000);
    };
    std::string breaks;
    for (const std::string &name : suite.names()) {
        std::vector<std::string> row{name};
        long lead[2] = {}; // CP opt minus native+prefetch
        bool ok = true;
        for (size_t i = 0; i < 2; ++i) {
            harness::CellOutcome rn = m.nextCell();
            harness::CellOutcome rp = m.nextCell();
            harness::CellOutcome ro = m.nextCell();
            row.push_back(harness::fmtCells(rn, rp, fmtSpd));
            row.push_back(harness::fmtCells(rn, ro, fmtSpd));
            ok = ok && rn.status.ok() && rp.status.ok() && ro.status.ok();
            if (ok)
                lead[i] = milli(row.back()) - milli(row[row.size() - 2]);
        }
        t.addRow(row);
        // A failed cell leaves nothing to judge; exitSummary() reports it.
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
        std::printf("\nReading: optimized CodePack beats native+prefetch "
                    "on every benchmark at both\nbus widths, and by more "
                    "at 16 b: prefetching alone does not explain its "
                    "win;\ncompression's bandwidth advantage is doing "
                    "real work.\n");
    return m.exitSummary();
}
