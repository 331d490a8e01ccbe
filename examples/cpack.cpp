/**
 * @file
 * cpack — the CodePack build-chain tool (the simulator-side analogue of
 * IBM's "CodePack PowerPC Code Compression Utility").
 *
 *   cpack <input.s|input.cpo|@bench> [options]
 *     -o <file.cpo>      write the assembled/loaded program
 *     -c <file.cpi>      write the compressed image
 *     --report           print the Table 3/4 style report (default)
 *     --no-raw-blocks    disable the raw-block escape
 *     --disasm <n>       disassemble the first n instructions
 *     --ecc <kind>       per-block soft-error protection: off (default),
 *                        crc8, crc16, secded (protected images write
 *                        `.cpi` version 3)
 *
 * Inputs: an assembly file, a saved program object, or '@name' for one
 * of the built-in benchmark profiles (e.g. @go).
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <string>

#include "asmkit/assembler.hh"
#include "common/byteio.hh"
#include "common/logging.hh"
#include "isa/isa.hh"
#include "asmkit/objfile.hh"
#include "codepack/compressor.hh"
#include "codepack/imagefile.hh"
#include "common/ecc.hh"
#include "common/table.hh"
#include "progen/progen.hh"

using namespace cps;

namespace
{

std::optional<std::string>
readTextFile(const std::string &path)
{
    auto bytes = readFileBytes(path);
    if (!bytes)
        return std::nullopt;
    return std::string(bytes->begin(), bytes->end());
}

void
report(const codepack::CompressedImage &img)
{
    std::printf("text: %u bytes -> compressed %llu bytes "
                "(ratio %.1f%%)\n\n",
                img.origTextBytes,
                static_cast<unsigned long long>(img.comp.totalBytes()),
                100.0 * img.compressionRatio());

    const codepack::Composition &c = img.comp;
    double total = static_cast<double>(c.totalBits());
    TextTable t;
    t.setTitle("Composition of compressed region");
    t.addHeader({"Component", "Bits", "Share"});
    auto row = [&](const char *label, u64 bits) {
        t.addRow({label, TextTable::grouped(bits),
                  TextTable::pct(static_cast<double>(bits) / total)});
    };
    row("index table", c.indexTableBits);
    row("dictionaries", c.dictionaryBits);
    row("compressed tags", c.compressedTagBits);
    row("dictionary indices", c.dictIndexBits);
    row("raw tags", c.rawTagBits);
    row("raw bits", c.rawBits);
    row("pad", c.padBits);
    t.print();

    std::printf("\ndictionaries: high %u entries, low %u entries; "
                "%u groups, %u blocks",
                img.highDict.totalEntries(), img.lowDict.totalEntries(),
                img.numGroups(), img.numBlocks());
    u32 raw_blocks = 0;
    for (const codepack::BlockExtent &b : img.blocks)
        raw_blocks += b.raw;
    std::printf(" (%u stored raw)\n", raw_blocks);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: cpack <input.s|input.cpo|@bench> "
                     "[-o out.cpo] [-c out.cpi] [--no-raw-blocks] "
                     "[--disasm N] [--ecc off|crc8|crc16|secded]\n");
        return 1;
    }

    std::string input = argv[1];
    std::string obj_out, img_out;
    bool raw_blocks = true;
    unsigned disasm_count = 0;
    ProtectKind protect = ProtectKind::None;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "-o" && i + 1 < argc)
            obj_out = argv[++i];
        else if (arg == "-c" && i + 1 < argc)
            img_out = argv[++i];
        else if (arg == "--no-raw-blocks")
            raw_blocks = false;
        else if (arg == "--disasm" && i + 1 < argc)
            disasm_count = static_cast<unsigned>(
                parseUnsignedOption("--disasm", argv[++i], 0, UINT_MAX));
        else if (arg == "--ecc" && i + 1 < argc) {
            if (!parseProtectKind(argv[++i], protect))
                cps_fatal("unknown protection kind '%s' (off, crc8, "
                          "crc16, secded)",
                          argv[i]);
        } else if (arg != "--report")
            cps_fatal("unknown option '%s'", arg.c_str());
    }

    // Load / assemble / generate.
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
        auto source = readTextFile(input);
        if (!source)
            cps_fatal("cannot read '%s'", input.c_str());
        prog = assembleOrDie(*source);
    }

    codepack::CompressorConfig ccfg;
    ccfg.allowRawBlocks = raw_blocks;
    codepack::CompressedImage img = codepack::compress(prog, ccfg);
    if (protect != ProtectKind::None)
        codepack::protectImage(img, protect);

    if (disasm_count > 0) {
        std::printf("disassembly (first %u instructions):\n",
                    disasm_count);
        for (unsigned i = 0;
             i < disasm_count && i < prog.textWords(); ++i) {
            Addr pc = prog.text.base + i * 4;
            std::printf("  %08x: %08x  %s\n", pc, prog.word(i),
                        disassemble(prog.word(i), pc).c_str());
        }
        std::printf("\n");
    }

    report(img);

    if (!obj_out.empty()) {
        if (!saveProgram(prog, obj_out))
            cps_fatal("cannot write '%s'", obj_out.c_str());
        std::printf("\nwrote program object: %s\n", obj_out.c_str());
    }
    if (!img_out.empty()) {
        if (!codepack::saveImage(img, img_out))
            cps_fatal("cannot write '%s'", img_out.c_str());
        std::printf("wrote compressed image: %s\n", img_out.c_str());
    }
    return 0;
}
