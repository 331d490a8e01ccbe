/**
 * @file
 * cpsim — the simulator driver: runs a program (assembly source, saved
 * object, or built-in benchmark) on one of the paper's machines under
 * any code model, and dumps timing results and statistics.
 *
 *   cpsim <input.s|input.cpo|@bench> [options]
 *     --machine 1issue|4issue|8issue      (default 4issue)
 *     --model native|codepack|optimized|software   (default native)
 *     --insns N                           (default 1000000)
 *     --icache KB  --bus BITS  --memlat FIRST,RATE
 *     --image file.cpi     use a pre-built compressed image
 *     --stats              dump every counter
 *     --output             print the program's syscall output
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "asmkit/assembler.hh"
#include "common/byteio.hh"
#include "common/logging.hh"
#include "asmkit/objfile.hh"
#include "codepack/imagefile.hh"
#include "harness/suite.hh"

using namespace cps;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(
            stderr,
            "usage: cpsim <input.s|input.cpo|@bench> [--machine "
            "1issue|4issue|8issue] [--model native|codepack|optimized|"
            "software] [--insns N] [--icache KB] [--bus BITS] "
            "[--memlat FIRST,RATE] [--image f.cpi] [--stats] "
            "[--output]\n");
        return 1;
    }

    std::string input = argv[1];
    MachineConfig cfg = baseline4Issue();
    CodeModel model = CodeModel::Native;
    u64 insns = 1000000;
    std::string image_path;
    bool dump_stats = false, show_output = false;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                cps_fatal("option '%s' needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--machine") {
            std::string m = next();
            if (m == "1issue")
                cfg = baseline1Issue();
            else if (m == "4issue")
                cfg = baseline4Issue();
            else if (m == "8issue")
                cfg = baseline8Issue();
            else
                cps_fatal("unknown machine '%s'", m.c_str());
        } else if (arg == "--model") {
            std::string m = next();
            if (m == "native")
                model = CodeModel::Native;
            else if (m == "codepack")
                model = CodeModel::CodePack;
            else if (m == "optimized")
                model = CodeModel::CodePackOptimized;
            else if (m == "software")
                model = CodeModel::CodePackSoftware;
            else
                cps_fatal("unknown code model '%s'", m.c_str());
        } else if (arg == "--insns") {
            insns = parseUnsignedOption("--insns", next(), 0, UINT64_MAX);
        } else if (arg == "--icache") {
            u64 kb = parseUnsignedOption("--icache", next(), 1,
                                         UINT32_MAX / 1024);
            cfg.icache.sizeBytes = static_cast<u32>(kb * 1024);
        } else if (arg == "--bus") {
            cfg.mem.busWidthBits = static_cast<unsigned>(
                parseUnsignedOption("--bus", next(), 1, UINT_MAX));
        } else if (arg == "--memlat") {
            std::string v = next();
            size_t comma = v.find(',');
            if (comma == std::string::npos)
                cps_fatal("--memlat wants FIRST,RATE");
            cfg.mem.firstAccess = parseUnsignedOption(
                "--memlat", v.substr(0, comma), 0, UINT64_MAX);
            cfg.mem.beatRate = parseUnsignedOption(
                "--memlat", v.substr(comma + 1), 0, UINT64_MAX);
        } else if (arg == "--image") {
            image_path = next();
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--output") {
            show_output = true;
        } else {
            cps_fatal("unknown option '%s'", arg.c_str());
        }
    }

    // Load the program.
    Program prog;
    if (!input.empty() && input[0] == '@') {
        prog = generateProgram(findProfile(input.substr(1)));
    } else if (input.size() > 4 &&
               input.compare(input.size() - 4, 4, ".cpo") == 0) {
        auto loaded = loadProgram(input);
        if (!loaded)
            cps_fatal("cannot load program '%s'", input.c_str());
        prog = std::move(*loaded);
    } else {
        auto bytes = readFileBytes(input);
        if (!bytes)
            cps_fatal("cannot read '%s'", input.c_str());
        prog = assembleOrDie(std::string(bytes->begin(), bytes->end()));
    }

    // The compressed image, if any code model needs it.
    codepack::CompressedImage image;
    const codepack::CompressedImage *image_ptr = nullptr;
    if (model != CodeModel::Native) {
        if (!image_path.empty()) {
            auto loaded = codepack::loadImageChecked(image_path);
            if (!loaded)
                cps_fatal("cannot load image '%s': %s",
                          image_path.c_str(),
                          loaded.error().describe().c_str());
            image = std::move(*loaded);
        } else {
            image = codepack::compress(prog);
        }
        image_ptr = &image;
    }

    cfg.codeModel = model;
    Machine machine(prog, cfg, image_ptr);
    RunResult r = machine.run(insns);

    std::printf("machine: %s, model %d, %llu instructions\n",
                cfg.name.c_str(), static_cast<int>(model),
                static_cast<unsigned long long>(r.instructions));
    std::printf("cycles:  %llu (IPC %.3f)%s\n",
                static_cast<unsigned long long>(r.cycles), r.ipc(),
                r.programExited ? " [program exited]" : "");
    std::printf("I-cache: %.2f%% miss rate (%llu misses)\n",
                100.0 * machine.icacheMissRate(),
                static_cast<unsigned long long>(
                    machine.stats().value("icache.misses")));
    if (model != CodeModel::Native && image_ptr) {
        std::printf("codepack: ratio %.1f%%, buffer hits %llu, index "
                    "miss rate %.1f%%\n",
                    100.0 * image.compressionRatio(),
                    static_cast<unsigned long long>(
                        machine.stats().value("decomp.buffer_hits")),
                    100.0 * machine.indexCacheMissRate());
    }
    if (show_output)
        std::printf("program output:\n%s\n",
                    machine.executor().output().c_str());
    if (dump_stats) {
        std::printf("\nstatistics:\n");
        machine.stats().dump("  ");
    }
    return 0;
}
