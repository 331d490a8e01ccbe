/**
 * @file
 * Pipeline viewer: renders the 1-issue in-order pipeline's timing for a
 * short code snippet as an ASCII diagram — one row per instruction,
 * 'F' where fetch completed, 'X' where the op entered EX, 'R' where the
 * result was ready. Run it twice to see the same snippet under native
 * and CodePack code models: the compressed run's fetch column shifts
 * right on the I-cache miss while decompression streams the line in.
 *
 * Build & run:  ./build/examples/pipeline_viewer
 */

#include <cstdio>
#include <vector>

#include "asmkit/assembler.hh"
#include "codepack/compressor.hh"
#include "pipeline/inorder.hh"
#include "sim/codepack_fetch.hh"
#include "sim/machine.hh"

using namespace cps;

namespace
{

void
renderTrace(const char *title, const std::vector<PipeTraceEntry> &trace)
{
    std::printf("%s\n", title);
    if (trace.empty())
        return;
    Cycle base = trace.front().fetchDone;
    constexpr unsigned kWidth = 64;

    std::printf("  %-28s|", "cycle ->");
    for (unsigned c = 0; c < kWidth; c += 10)
        std::printf("%-10llu", static_cast<unsigned long long>(base + c));
    std::printf("\n");

    for (const PipeTraceEntry &e : trace) {
        std::string lane(kWidth, '.');
        auto mark = [&](Cycle t, char ch) {
            if (t >= base && t < base + kWidth) {
                size_t i = static_cast<size_t>(t - base);
                lane[i] = lane[i] == '.' ? ch : '*';
            }
        };
        mark(e.fetchDone, 'F');
        mark(e.execute, 'X');
        mark(e.resultAt, 'R');
        std::string text = disassemble(e.inst, e.pc);
        if (text.size() > 26)
            text.resize(26);
        std::printf("  %-28s|%s\n", text.c_str(), lane.c_str());
    }
    std::printf("\n");
}

std::vector<PipeTraceEntry>
traceRun(const Program &prog, const codepack::CompressedImage *img,
         u64 insns)
{
    MachineConfig cfg = baseline1Issue();
    MainMemory mem(cfg.mem);
    mem.loadSegment(prog.text);
    mem.loadSegment(prog.data);
    DecodedText text(prog);
    Executor exec(text, mem);
    exec.reset(prog);
    LiveTraceSource src(exec);
    StatSet stats;
    DataPath data(cfg.dcache, mem, stats);

    std::vector<PipeTraceEntry> trace;
    if (img) {
        CodePackFetchPath fetch(cfg.icache, *img, mem,
                                codepack::DecompressorConfig{}, stats);
        InOrderPipeline pipe(cfg.pipeline, src, fetch, data, stats);
        pipe.setTraceSink(&trace);
        pipe.run(insns);
    } else {
        NativeFetchPath fetch(cfg.icache, mem, stats);
        InOrderPipeline pipe(cfg.pipeline, src, fetch, data, stats);
        pipe.setTraceSink(&trace);
        pipe.run(insns);
    }
    return trace;
}

} // namespace

int
main()
{
    const char *source = R"(
.data
buf: .word 5, 7, 0, 0
.text
main:
    la   $t9, buf
    lw   $t0, 0($t9)      # load ...
    addu $t1, $t0, $t0    # ... load-use bubble
    lw   $t2, 4($t9)
    mul  $t3, $t1, $t2    # 3-cycle multiply blocks the pipe
    addu $t4, $t3, $t0
    sw   $t4, 8($t9)
    beq  $t4, $zero, skip # not taken
    addiu $t5, $t4, 1
skip:
    li   $v0, 10
    syscall
)";
    Program prog = assembleOrDie(source);
    codepack::CompressedImage img = codepack::compress(prog);

    std::printf("1-issue in-order pipeline timing "
                "(F = fetched, X = execute, R = result)\n\n");
    renderTrace("native code (critical word first at t=10):",
                traceRun(prog, nullptr, 12));
    renderTrace("CodePack baseline (index fetch + serial decode):",
                traceRun(prog, &img, 12));
    return 0;
}
