/**
 * @file
 * Extension experiment: the steady-state version of Figure 2 — the
 * average critical-word latency of an I-cache miss under each code
 * model on the 4-issue baseline. This is the per-miss cost the paper's
 * Figure 2 illustrates for a single event, measured over every miss of
 * a full run (output-buffer hits and index-cache hits included). The
 * note under the table places each anchored column's averages against
 * Figure 2's single-event latency, from the numbers above it.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>

#include "common/logging.hh"
#include "common/table.hh"
#include "harness/engine.hh"

using namespace cps;

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

int
main()
{
    u64 insns = Suite::runInsns();
    Suite &suite = Suite::instance();
    suite.pregenerate();

    TextTable t;
    t.setTitle("Extension: average critical-word I-miss latency in "
               "cycles (4-issue; Figure 2 over a full run)");
    t.addHeader({"Bench", "Native", "CodePack", "Optimized",
                 "Software (8 cyc/insn)"});

    harness::Matrix m;
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        m.add(bench, baseline4Issue(), insns);
        m.add(bench, baseline4Issue().withCodeModel(CodeModel::CodePack),
              insns);
        m.add(bench,
              baseline4Issue().withCodeModel(CodeModel::CodePackOptimized),
              insns);
        m.add(bench,
              baseline4Issue().withCodeModel(CodeModel::CodePackSoftware),
              insns);
    }
    m.run();

    std::vector<double> avgs[std::size(kAnchored)];
    for (const std::string &name : suite.names()) {
        std::vector<std::string> row{name};
        for (size_t col = 0; col < 4; ++col) {
            const harness::CellOutcome &c = m.nextCell();
            row.push_back(harness::fmtCell(c, avgMissLatency));
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
        std::printf("%s\n", againstAnchor(kAnchored[col],
                                          kAnchorCycles[col], avgs[col])
                                .c_str());
    return m.exitSummary();
}
