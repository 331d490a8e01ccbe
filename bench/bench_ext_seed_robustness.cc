/**
 * @file
 * Extension experiment: seed robustness. Our benchmarks are synthetic;
 * a fair question is whether the headline comparisons depend on the
 * particular random program the generator emitted. This bench re-rolls
 * the 'go' profile under several seeds and reports the spread of the
 * compression ratio, I-miss rate, and the three headline speedups,
 * then checks the paper's qualitative claim (baseline CodePack <= 1.0
 * < optimized) seed by seed and names every seed that breaks it.
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/table.hh"
#include "common/threadpool.hh"
#include "harness/engine.hh"

using namespace cps;

namespace
{

BenchProgram
reroll(u64 seed)
{
    BenchmarkProfile profile = findProfile("go");
    profile.seed = seed;
    BenchProgram bench;
    bench.profile = nullptr;
    bench.program = generateProgram(profile);
    bench.image = codepack::compress(bench.program);
    return bench;
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

int
main()
{
    u64 insns = Suite::runInsns() / 2; // 5 seeds: keep the total modest
    const u64 seeds[] = {0x60, 0xbeef, 0x1234, 0xabcd, 0x42424242};
    const size_t nseeds = std::size(seeds);

    // Program generation is independent per seed; build all five in
    // parallel before the run matrix (which wants stable pointers).
    std::vector<BenchProgram> benches(nseeds);
    {
        ThreadPool pool;
        pool.parallelFor(nseeds,
                         [&](size_t i) { benches[i] = reroll(seeds[i]); });
    }

    harness::Matrix m;
    for (const BenchProgram &bench : benches) {
        m.add(bench, baseline4Issue(), insns);
        m.add(bench, baseline4Issue().withCodeModel(CodeModel::CodePack),
              insns);
        m.add(bench,
              baseline4Issue().withCodeModel(CodeModel::CodePackOptimized),
              insns);
    }
    m.run();

    std::vector<double> ratio, miss, cp, opt;
    std::string broken; // seeds whose speedups break the claim
    for (size_t i = 0; i < nseeds; ++i) {
        harness::CellOutcome cn = m.nextCell();
        harness::CellOutcome cc = m.nextCell();
        harness::CellOutcome co = m.nextCell();
        // A failed seed can't contribute to a range; exitSummary()
        // turns the omission into a diagnosable nonzero exit below.
        if (!cn.status.ok() || !cc.status.ok() || !co.status.ok())
            continue;
        ratio.push_back(benches[i].image.compressionRatio());
        miss.push_back(cn.outcome.icacheMissRate);
        cp.push_back(speedup(cn.outcome, cc.outcome));
        opt.push_back(speedup(cn.outcome, co.outcome));
        if (!(cp.back() <= 1.0 && opt.back() > 1.0))
            broken += strfmt("%s0x%llx", broken.empty() ? "" : ", ",
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
    return m.exitSummary();
}
