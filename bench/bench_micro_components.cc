/**
 * @file
 * Component microbenchmarks (google-benchmark): raw throughput of the
 * pieces the tables exercise end to end — the CodePack compressor and
 * functional decompressor, the Huffman coder, cache and predictor
 * lookups, the functional executor, and both timing pipelines.
 */

#include <algorithm>

#include <benchmark/benchmark.h>

#include "branch/predictors.hh"
#include "cache/cache.hh"
#include "codepack/block_fetcher.hh"
#include "codepack/decompressor.hh"
#include "common/rng.hh"
#include "compress/ccrp.hh"
#include "compress/dict32.hh"
#include "harness/suite.hh"

namespace cps
{
namespace
{

const BenchProgram &
goBench()
{
    return Suite::instance().get("go");
}

std::vector<u32>
goWords()
{
    const Program &prog = goBench().program;
    std::vector<u32> words;
    for (size_t i = 0; i < prog.textWords(); ++i)
        words.push_back(prog.word(i));
    return words;
}

void
BM_CodePackCompress(benchmark::State &state)
{
    auto words = goWords();
    for (auto _ : state) {
        auto img = codepack::compressWords(words, kTextBase);
        benchmark::DoNotOptimize(img.bytes.data());
    }
    state.SetBytesProcessed(static_cast<s64>(state.iterations()) *
                            static_cast<s64>(words.size() * 4));
}
BENCHMARK(BM_CodePackCompress)->Unit(benchmark::kMillisecond);

void
BM_CodePackDecompress(benchmark::State &state)
{
    const BenchProgram &bench = goBench();
    codepack::Decompressor d(bench.image);
    u32 blocks = bench.image.numBlocks();
    u32 next = 0;
    for (auto _ : state) {
        auto blk = d.decompressFlatBlock(next);
        benchmark::DoNotOptimize(blk.words[0]);
        next = (next + 1) % blocks;
    }
    state.SetItemsProcessed(static_cast<s64>(state.iterations()) * 16);
}
BENCHMARK(BM_CodePackDecompress);

void
BM_CodePackDecompressChecked(benchmark::State &state)
{
    // The bit-serial checked decoder, for comparison against the LUT
    // fast path that BM_CodePackDecompress exercises.
    const BenchProgram &bench = goBench();
    codepack::Decompressor d(bench.image);
    u32 blocks = bench.image.numBlocks();
    u32 next = 0;
    for (auto _ : state) {
        auto blk = d.tryDecompressBlock(next / codepack::kBlocksPerGroup,
                                        next % codepack::kBlocksPerGroup);
        benchmark::DoNotOptimize(blk.value().words[0]);
        next = (next + 1) % blocks;
    }
    state.SetItemsProcessed(static_cast<s64>(state.iterations()) * 16);
}
BENCHMARK(BM_CodePackDecompressChecked);

void
BM_BlockFetcherFetch(benchmark::State &state)
{
    // Re-fetching a small hot set through the host block fetcher — the
    // common pattern in both CodePack fetch paths' miss handling.
    const BenchProgram &bench = goBench();
    codepack::Decompressor d(bench.image);
    codepack::BlockFetcher fetcher(d);
    u32 blocks = std::min<u32>(bench.image.numBlocks(), 16);
    u32 next = 0;
    for (auto _ : state) {
        const codepack::DecodedBlock &blk = fetcher.getFlat(next);
        benchmark::DoNotOptimize(blk.words[0]);
        next = (next + 1) % blocks;
    }
    state.SetItemsProcessed(static_cast<s64>(state.iterations()) * 16);
}
BENCHMARK(BM_BlockFetcherFetch);

void
BM_CcrpCompress(benchmark::State &state)
{
    auto words = goWords();
    for (auto _ : state) {
        auto img = compress::CcrpImage::compress(words, kTextBase);
        benchmark::DoNotOptimize(img.compressionRatio());
    }
    state.SetBytesProcessed(static_cast<s64>(state.iterations()) *
                            static_cast<s64>(words.size() * 4));
}
BENCHMARK(BM_CcrpCompress)->Unit(benchmark::kMillisecond);

void
BM_Dict32Compress(benchmark::State &state)
{
    auto words = goWords();
    for (auto _ : state) {
        auto img = compress::Dict32Image::compress(words, kTextBase);
        benchmark::DoNotOptimize(img.compressionRatio());
    }
    state.SetBytesProcessed(static_cast<s64>(state.iterations()) *
                            static_cast<s64>(words.size() * 4));
}
BENCHMARK(BM_Dict32Compress)->Unit(benchmark::kMillisecond);

void
BM_IsaDecode(benchmark::State &state)
{
    auto words = goWords();
    size_t i = 0;
    for (auto _ : state) {
        Inst inst = decode(words[i]);
        benchmark::DoNotOptimize(inst.op);
        i = (i + 1) % words.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IsaDecode);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{16 * 1024, 32, 2});
    Rng rng(1);
    std::vector<Addr> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(static_cast<Addr>(rng.below(64 * 1024)) & ~3u);
    size_t i = 0;
    for (auto _ : state) {
        if (!cache.access(addrs[i]))
            cache.fill(addrs[i]);
        i = (i + 1) % addrs.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_GsharePredict(benchmark::State &state)
{
    GsharePredictor pred(14);
    Rng rng(2);
    Addr pc = 0x1000;
    for (auto _ : state) {
        bool taken = rng.chancePercent(60);
        benchmark::DoNotOptimize(pred.predict(pc));
        pred.update(pc, taken);
        pc += 4;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GsharePredict);

void
BM_FunctionalExecution(benchmark::State &state)
{
    const BenchProgram &bench = goBench();
    MainMemory mem;
    mem.loadSegment(bench.program.text);
    mem.loadSegment(bench.program.data);
    DecodedText text(bench.program);
    Executor exec(text, mem);
    exec.reset(bench.program);
    for (auto _ : state) {
        if (exec.halted())
            exec.reset(bench.program);
        benchmark::DoNotOptimize(exec.step().pc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalExecution);

void
BM_OoOSimulation(benchmark::State &state)
{
    // Simulated instructions per wall-clock second on the 4-issue model.
    const BenchProgram &bench = goBench();
    for (auto _ : state) {
        RunOutcome out = runMachine(bench, baseline4Issue(), 50000);
        benchmark::DoNotOptimize(out.result.cycles);
    }
    state.SetItemsProcessed(static_cast<s64>(state.iterations()) * 50000);
    state.SetLabel("simulated insns/s");
}
BENCHMARK(BM_OoOSimulation)->Unit(benchmark::kMillisecond);

void
BM_InOrderSimulation(benchmark::State &state)
{
    const BenchProgram &bench = goBench();
    for (auto _ : state) {
        RunOutcome out = runMachine(bench, baseline1Issue(), 50000);
        benchmark::DoNotOptimize(out.result.cycles);
    }
    state.SetItemsProcessed(static_cast<s64>(state.iterations()) * 50000);
    state.SetLabel("simulated insns/s");
}
BENCHMARK(BM_InOrderSimulation)->Unit(benchmark::kMillisecond);

void
BM_CodePackSimulation(benchmark::State &state)
{
    const BenchProgram &bench = goBench();
    MachineConfig cfg =
        baseline4Issue().withCodeModel(CodeModel::CodePackOptimized);
    for (auto _ : state) {
        RunOutcome out = runMachine(bench, cfg, 50000);
        benchmark::DoNotOptimize(out.result.cycles);
    }
    state.SetItemsProcessed(static_cast<s64>(state.iterations()) * 50000);
    state.SetLabel("simulated insns/s");
}
BENCHMARK(BM_CodePackSimulation)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace cps
