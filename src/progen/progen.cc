#include "progen.hh"

#include <algorithm>

#include "asmkit/assembler.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace cps
{

namespace
{

/** Builds the assembly text for one profile. */
class SourceBuilder
{
  public:
    explicit SourceBuilder(const BenchmarkProfile &p)
        : p_(p), rng_(p.seed)
    {
        cps_assert(isPow2(p.hotFuncs), "hotFuncs must be a power of two");
        cps_assert(p.hotFuncs <= p.numFuncs,
                   "hotFuncs cannot exceed numFuncs");
        cps_assert(isPow2(p.dataArrays), "dataArrays must be a power of 2");
    }

    std::string
    build()
    {
        emitData();
        out_ += ".text\n";
        emitDriver();
        for (u32 h = 0; h < p_.numHelpers; ++h)
            emitHelper(h);
        // Interleave pool functions and subs in memory so call targets
        // scatter across the text the way a real linker layout does.
        u32 subs_emitted = 0;
        for (u32 f = 0; f < p_.numFuncs; ++f) {
            emitFunction(f);
            while (subs_emitted * std::max(p_.numFuncs, 1u) <
                   p_.numSubs * (f + 1) && subs_emitted < p_.numSubs) {
                emitSub(subs_emitted++);
            }
        }
        while (subs_emitted < p_.numSubs)
            emitSub(subs_emitted++);
        return std::move(out_);
    }

  private:
    // ----------------------------------------------------------- pieces

    void
    line(const std::string &s)
    {
        out_ += "    ";
        out_ += s;
        out_ += '\n';
    }

    void
    label(const std::string &s)
    {
        out_ += s;
        out_ += ":\n";
    }

    std::string
    arr(u32 index) const
    {
        return strfmt("garr%u", index & (p_.dataArrays - 1));
    }

    /** A scratch integer register from the chunk working set. */
    const char *
    tmp()
    {
        static const char *regs[] = {"$t0", "$t1", "$t2", "$t3",
                                     "$t4", "$t5", "$t6", "$t7"};
        return regs[rng_.below(8)];
    }

    /** A "live-ish" source: mostly temps, sometimes args/saved. */
    const char *
    src()
    {
        static const char *regs[] = {"$t0", "$t1", "$t2", "$t3", "$t4",
                                     "$t5", "$t6", "$t7", "$a0", "$a1",
                                     "$s0", "$v1"};
        return regs[rng_.below(12)];
    }

    const char *
    fpreg()
    {
        static const char *regs[] = {"$f2", "$f3", "$f4", "$f5",
                                     "$f6", "$f7", "$f8", "$f9"};
        return regs[rng_.below(8)];
    }

    /** A realistic small immediate (stack offsets, strides, masks). */
    s32
    smallImm()
    {
        if (rng_.chancePercent(p_.oddConstPercent)) {
            // A one-off constant: becomes a raw halfword under CodePack.
            return static_cast<s32>(rng_.range(0, 0x7fff));
        }
        static const s32 common[] = {0, 1, 2, 3, 4, 8, 12, 16, 24, 32,
                                     -1, -4, 255, 1024};
        return common[rng_.below(sizeof(common) / sizeof(common[0]))];
    }

    // ------------------------------------------------------ instructions
    //
    // Each emitter draws an instruction's operands into locals, last
    // operand first. That is the order the calibrated programs were
    // generated in, and spelling it out keeps the output independent of
    // the compiler's argument evaluation order.

    /** "op rd, rs, rt" with a scratch rd and two sources. */
    void
    alu3(const char *op)
    {
        const char *rt = src();
        const char *rs = src();
        const char *rd = tmp();
        line(strfmt("%s %s, %s, %s", op, rd, rs, rt));
    }

    /** "op rt, rs, imm" with a scratch rt and a small immediate. */
    void
    aluImm(const char *op)
    {
        s32 imm = smallImm();
        const char *rs = src();
        const char *rt = tmp();
        line(strfmt("%s %s, %s, %d", op, rt, rs, imm));
    }

    /** "op rd, rt, sa" with a shift amount in 1..@p max_sa. */
    void
    shift(const char *op, u32 max_sa)
    {
        unsigned sa = 1 + static_cast<unsigned>(rng_.below(max_sa));
        const char *rt = src();
        const char *rd = tmp();
        line(strfmt("%s %s, %s, %u", op, rd, rt, sa));
    }

    /** A load of a random word of the array $t8 points at. */
    void
    loadWord()
    {
        u32 off = wordOff();
        const char *rt = tmp();
        line(strfmt("lw %s, %u($t8)", rt, off));
    }

    /** A store to a random word of the array $t8 points at. */
    void
    storeWord()
    {
        u32 off = wordOff();
        const char *rt = src();
        line(strfmt("sw %s, %u($t8)", rt, off));
    }

    /** "op fd, fs, ft" over random FP registers. */
    void
    fp3(const char *op)
    {
        const char *ft = fpreg();
        const char *fs = fpreg();
        const char *fd = fpreg();
        line(strfmt("%s %s, %s, %s", op, fd, fs, ft));
    }

    /** An FP load or store of a random word of farr ($t9). */
    void
    fpMem(const char *op)
    {
        u32 off = 4 * static_cast<u32>(rng_.below(64));
        const char *ft = fpreg();
        line(strfmt("%s %s, %u($t9)", op, ft, off));
    }

    // ------------------------------------------------------------- data

    void
    emitData()
    {
        out_ += ".data\n";
        // The function-pointer table the driver indexes with its LCG.
        label("fn_table");
        for (u32 f = 0; f < p_.hotFuncs; ++f)
            line(strfmt(".word fn%u", f));
        // Shared global arrays (integer) and one FP array.
        for (u32 a = 0; a < p_.dataArrays; ++a) {
            label(strfmt("garr%u", a));
            line(strfmt(".space %u", p_.dataArrayBytes));
        }
        label("farr");
        line(strfmt(".space %u", 4096u));
    }

    // ----------------------------------------------------------- driver

    void
    emitDriver()
    {
        label("main");
        line("la $s7, fn_table");
        line(strfmt("li $s5, %llu",
                    static_cast<unsigned long long>(p_.seed | 1)));
        line("li $s6, 1000000000"); // effectively "run forever"
        label("outer");
        for (u32 c = 0; c < p_.callsPerIter; ++c) {
            // s5 = s5 * 1664525 + 1013904223 (Numerical Recipes LCG).
            line("li $t0, 1664525");
            line("mul $s5, $s5, $t0");
            line("li $t1, 1013904223");
            line("addu $s5, $s5, $t1");
            line("srl $t2, $s5, 16");
            line(strfmt("andi $t2, $t2, %u", p_.hotFuncs - 1));
            line("sll $t2, $t2, 2");
            line("addu $t3, $s7, $t2");
            line("lw $t4, 0($t3)");
            line("move $a0, $s5");
            line("jalr $t4");
        }
        line("addiu $s6, $s6, -1");
        line("bgtz $s6, outer");
        line("li $v0, 10");
        line("syscall");
    }

    // ---------------------------------------------------------- helpers

    void
    emitHelper(u32 h)
    {
        // Small leaf functions: hash-and-store kernels.
        label(strfmt("helper%u", h));
        line(strfmt("la $t8, %s", arr(static_cast<u32>(rng_.next())).c_str()));
        u32 n = 4 + static_cast<u32>(rng_.below(6));
        for (u32 i = 0; i < n; ++i) {
            switch (rng_.below(4)) {
              case 0: alu3("xor"); break;
              case 1: aluImm("addiu"); break;
              case 2: loadWord(); break;
              default: shift("srl", 8); break;
            }
        }
        line(strfmt("sw $t0, %u($t8)", wordOff()));
        line("jr $ra");
    }

    u32
    wordOff()
    {
        return 4 * static_cast<u32>(
                       rng_.below(p_.dataArrayBytes / 4));
    }

    /**
     * A second-tier leaf routine: a cold, mostly straight-line body with
     * a couple of data-dependent diamonds. Subs never call anything, so
     * the call depth is bounded (main -> fn -> sub).
     */
    void
    emitSub(u32 s)
    {
        label(strfmt("sub%u", s));
        line(strfmt("la $t8, %s",
                    arr(static_cast<u32>(rng_.next())).c_str()));
        u32 remaining = p_.subInsns;
        u32 diamond = 0;
        while (remaining > 0) {
            u32 run = std::min<u32>(remaining,
                                    4 + static_cast<u32>(rng_.below(6)));
            for (u32 i = 0; i < run; ++i) {
                switch (rng_.below(5)) {
                  case 0: loadWord(); break;
                  case 1: storeWord(); break;
                  case 2: aluImm("addiu"); break;
                  case 3: alu3("xor"); break;
                  default: shift("sll", 6); break;
                }
            }
            remaining -= run;
            if (remaining > 4) {
                // A short forward skip keeps the sub branchy.
                std::string l = strfmt("sub%u_d%u", s, diamond++);
                unsigned bit = static_cast<unsigned>(rng_.below(8));
                const char *rt = src();
                line(strfmt("srl $t6, %s, %u", rt, bit));
                line("andi $t6, $t6, 1");
                line(strfmt("beqz $t6, %s", l.c_str()));
                u32 skip = std::min<u32>(remaining - 2,
                                         2 + static_cast<u32>(
                                                 rng_.below(4)));
                for (u32 i = 0; i < skip; ++i)
                    alu3("addu");
                label(l);
                remaining -= skip;
            }
        }
        line("jr $ra");
    }

    // --------------------------------------------------------- functions

    void
    emitFunction(u32 f)
    {
        curFunc_ = f;
        blockCounter_ = 0;
        label(strfmt("fn%u", f));
        // Prologue: a realistic frame with common small stack offsets.
        line("addiu $sp, $sp, -32");
        line("sw $ra, 28($sp)");
        line("sw $s0, 24($sp)");
        line("sw $s1, 20($sp)");
        line("move $s0, $a0");
        line(strfmt("li $s1, %u", p_.innerTrips));
        label(strfmt("fn%u_loop", f));
        for (u32 b = 0; b < p_.blocksPerFunc; ++b)
            emitChunk();
        line("addiu $s1, $s1, -1");
        line(strfmt("bgtz $s1, fn%u_loop", f));
        // Epilogue.
        line("lw $ra, 28($sp)");
        line("lw $s0, 24($sp)");
        line("lw $s1, 20($sp)");
        line("addiu $sp, $sp, 32");
        line("move $v0, $t0");
        line("jr $ra");
    }

    void
    emitChunk()
    {
        // Optionally guard the whole chunk with a data-dependent skip.
        // The tested bit comes from the per-call argument ($s0), so the
        // skip pattern is fixed within one call's loop trips (history
        // predictors learn it) but varies call to call.
        bool skipped = p_.skipPercent && rng_.chancePercent(p_.skipPercent);
        std::string skip_label;
        if (skipped) {
            skip_label = strfmt("fn%u_s%u", curFunc_, blockCounter_++);
            unsigned bit = static_cast<unsigned>(rng_.below(16));
            line(strfmt("srl $t6, $s0, %u", bit));
            line("andi $t6, $t6, 1");
            line(strfmt("bnez $t6, %s", skip_label.c_str()));
        }

        if (p_.fpPercent && rng_.chancePercent(p_.fpPercent)) {
            emitFpChunk();
        } else {
            // Weighted mix tuned for compiled-code branch density:
            // roughly one conditional branch every 6-8 instructions.
            switch (rng_.below(10)) {
              case 0: case 1: case 2: emitAluChunk(); break;
              case 3: case 4: case 5: emitMemChunk(); break;
              default: emitDiamondChunk(); break;
            }
            if (p_.numSubs && rng_.chancePercent(p_.subCallPercent)) {
                line(strfmt("jal sub%u",
                            static_cast<u32>(rng_.below(p_.numSubs))));
            } else if (rng_.chancePercent(p_.helperCallPercent)) {
                line(strfmt("jal helper%u",
                            static_cast<u32>(rng_.below(p_.numHelpers))));
            }
        }

        if (skipped)
            label(skip_label);
    }

    void
    emitAluChunk()
    {
        for (u32 i = 0; i < p_.chunkInsns; ++i) {
            switch (rng_.below(10)) {
              case 0: alu3("addu"); break;
              case 1: alu3("subu"); break;
              case 2: alu3("xor"); break;
              case 3: alu3("and"); break;
              case 4: alu3("or"); break;
              case 5: aluImm("addiu"); break;
              case 6: shift("sll", 8); break;
              case 7: aluImm("slti"); break;
              case 8:
                if (rng_.chancePercent(25))
                    alu3("mul");
                else
                    shift("sra", 8);
                break;
              default: aluImm("ori"); break;
            }
        }
    }

    void
    emitMemChunk()
    {
        line(strfmt("la $t8, %s",
                    arr(static_cast<u32>(rng_.next())).c_str()));
        for (u32 i = 0; i < p_.chunkInsns; ++i) {
            switch (rng_.below(8)) {
              case 0: case 1: case 2: loadWord(); break;
              case 3: storeWord(); break;
              case 4: {
                u32 off = wordOff();
                off += static_cast<u32>(rng_.below(4));
                const char *rt = tmp();
                line(strfmt("lbu %s, %u($t8)", rt, off));
                break;
              }
              case 5: {
                u32 off = 4 * static_cast<u32>(rng_.below(5)); // 0..16
                const char *rt = tmp();
                line(strfmt("lw %s, %u($sp)", rt, off));
                break;
              }
              case 6: aluImm("addiu"); break;
              default: alu3("addu"); break;
            }
        }
    }

    void
    emitDiamondChunk()
    {
        u32 id = blockCounter_++;
        std::string la = strfmt("fn%u_d%u_a", curFunc_, id);
        std::string lb = strfmt("fn%u_d%u_b", curFunc_, id);
        // A data-dependent two-way split. Half the diamonds test bits of
        // the loop counter (periodic, learnable by history predictors);
        // the rest test pseudo-random data (hard to predict) — real
        // integer code shows a similar mix.
        unsigned bit = static_cast<unsigned>(rng_.below(6));
        const char *subject = rng_.chancePercent(50) ? "$s1" : src();
        line(strfmt("srl $t6, %s, %u", subject, bit));
        line("andi $t6, $t6, 1");
        line(strfmt("beqz $t6, %s", la.c_str()));
        u32 then_n = 2 + static_cast<u32>(rng_.below(4));
        for (u32 i = 0; i < then_n; ++i)
            aluImm("addiu");
        line(strfmt("b %s", lb.c_str()));
        label(la);
        u32 else_n = 2 + static_cast<u32>(rng_.below(4));
        for (u32 i = 0; i < else_n; ++i)
            alu3("xor");
        label(lb);
        // Pad with straight-line work so chunks stay comparable in size.
        u32 rest = p_.chunkInsns > (then_n + 6) ? p_.chunkInsns - then_n - 6
                                                : 2;
        for (u32 i = 0; i < rest; ++i)
            alu3("addu");
    }

    void
    emitFpChunk()
    {
        line("la $t9, farr");
        fpMem("lwc1");
        fpMem("lwc1");
        for (u32 i = 0; i + 4 < p_.chunkInsns; ++i) {
            switch (rng_.below(4)) {
              case 0: fp3("add.s"); break;
              case 1: fp3("mul.s"); break;
              case 2: fp3("sub.s"); break;
              default: {
                const char *fs = fpreg();
                const char *fd = fpreg();
                line(strfmt("mov.s %s, %s", fd, fs));
                break;
              }
            }
        }
        fpMem("swc1");
    }

    const BenchmarkProfile &p_;
    Rng rng_;
    std::string out_;
    u32 curFunc_ = 0;
    u32 blockCounter_ = 0;
};

} // namespace

const std::vector<BenchmarkProfile> &
standardProfiles()
{
    static const std::vector<BenchmarkProfile> profiles = [] {
        std::vector<BenchmarkProfile> v;

        // cc1: the biggest text, heavy call graph, worst I-cache miss
        // rate of the suite (Table 1: 6.7% at 16KB).
        BenchmarkProfile cc1;
        cc1.name = "cc1";
        cc1.numFuncs = 512;
        cc1.hotFuncs = 512;
        cc1.blocksPerFunc = 32;
        cc1.chunkInsns = 8;
        cc1.innerTrips = 40;
        cc1.callsPerIter = 8;
        cc1.oddConstPercent = 12;
        cc1.skipPercent = 45;
        cc1.helperCallPercent = 7;
        cc1.numSubs = 512;
        cc1.subCallPercent = 20;
        cc1.seed = 0xcc1;
        v.push_back(cc1);

        // go: mid-size text, miss rate close to cc1 (6.2%).
        BenchmarkProfile go;
        go.name = "go";
        go.numFuncs = 160;
        go.hotFuncs = 128;
        go.blocksPerFunc = 32;
        go.chunkInsns = 8;
        go.innerTrips = 20;
        go.callsPerIter = 6;
        go.oddConstPercent = 8;
        go.skipPercent = 40;
        go.helperCallPercent = 7;
        go.numSubs = 192;
        go.subCallPercent = 18;
        go.seed = 0x60;
        v.push_back(go);

        // mpeg2enc: loop-dominated media kernel; essentially no misses.
        BenchmarkProfile mpeg;
        mpeg.name = "mpeg2enc";
        mpeg.numFuncs = 72;
        mpeg.hotFuncs = 4;
        mpeg.blocksPerFunc = 26;
        mpeg.chunkInsns = 12;
        mpeg.innerTrips = 64;
        mpeg.callsPerIter = 4;
        mpeg.fpPercent = 20;
        mpeg.oddConstPercent = 12;
        mpeg.helperCallPercent = 4;
        mpeg.skipPercent = 10;
        mpeg.seed = 0x3e6;
        v.push_back(mpeg);

        // pegwit: small crypto kernel; near-zero miss rate.
        BenchmarkProfile pegwit;
        pegwit.name = "pegwit";
        pegwit.numFuncs = 56;
        pegwit.hotFuncs = 4;
        pegwit.blocksPerFunc = 28;
        pegwit.chunkInsns = 12;
        pegwit.innerTrips = 48;
        pegwit.callsPerIter = 4;
        pegwit.oddConstPercent = 8;
        pegwit.helperCallPercent = 5;
        pegwit.skipPercent = 10;
        pegwit.seed = 0x9e6;
        v.push_back(pegwit);

        // perl: interpreter-flavoured, moderate miss rate (4.4%).
        BenchmarkProfile perl;
        perl.name = "perl";
        perl.numFuncs = 144;
        perl.hotFuncs = 128;
        perl.blocksPerFunc = 28;
        perl.chunkInsns = 8;
        perl.innerTrips = 26;
        perl.callsPerIter = 8;
        perl.oddConstPercent = 12;
        perl.skipPercent = 40;
        perl.helperCallPercent = 7;
        perl.numSubs = 192;
        perl.subCallPercent = 18;
        perl.seed = 0x9e71;
        v.push_back(perl);

        // vortex: large OO database benchmark, 4.6% miss rate.
        BenchmarkProfile vortex;
        vortex.name = "vortex";
        vortex.numFuncs = 272;
        vortex.hotFuncs = 256;
        vortex.blocksPerFunc = 26;
        vortex.chunkInsns = 8;
        vortex.innerTrips = 33;
        vortex.callsPerIter = 8;
        vortex.oddConstPercent = 8;
        vortex.skipPercent = 35;
        vortex.helperCallPercent = 7;
        vortex.numSubs = 384;
        vortex.subCallPercent = 18;
        vortex.seed = 0xdb;
        v.push_back(vortex);

        return v;
    }();
    return profiles;
}

const BenchmarkProfile &
findProfile(const std::string &name)
{
    for (const BenchmarkProfile &p : standardProfiles()) {
        if (p.name == name)
            return p;
    }
    cps_fatal("unknown benchmark profile '%s'", name.c_str());
}

std::string
generateSource(const BenchmarkProfile &profile)
{
    SourceBuilder builder(profile);
    return builder.build();
}

Program
generateProgram(const BenchmarkProfile &profile)
{
    return assembleOrDie(generateSource(profile));
}

} // namespace cps
