/**
 * @file
 * Assembler tests: syntax, directives, pseudo-instruction expansion,
 * label resolution, and error reporting.
 */

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "isa/isa.hh"

namespace cps
{
namespace
{

Program
ok(const std::string &src)
{
    AsmResult res = assembleSource(src);
    EXPECT_TRUE(res.ok());
    for (const auto &e : res.errors)
        ADD_FAILURE() << e;
    return std::move(res.program);
}

std::vector<std::string>
errorsOf(const std::string &src)
{
    return assembleSource(src).errors;
}

TEST(Assembler, EmptySourceIsEmptyProgram)
{
    Program p = ok("");
    EXPECT_EQ(p.textWords(), 0u);
    EXPECT_TRUE(p.data.bytes.empty());
}

TEST(Assembler, CommentsAndBlankLinesIgnored)
{
    Program p = ok("# a comment\n\n   \n.text\n  nop # trailing\n");
    EXPECT_EQ(p.textWords(), 1u);
    EXPECT_EQ(p.word(0), kNopWord);
}

TEST(Assembler, BasicEncoding)
{
    Program p = ok("addu $v0, $a0, $a1\n");
    Inst i = decode(p.word(0));
    EXPECT_EQ(i.op, Op::Addu);
    EXPECT_EQ(i.rd, 2);
    EXPECT_EQ(i.rs, 4);
    EXPECT_EQ(i.rt, 5);
}

TEST(Assembler, NumericRegisters)
{
    Program p = ok("addu $2, $4, $5\n");
    Inst i = decode(p.word(0));
    EXPECT_EQ(i.rd, 2);
    EXPECT_EQ(i.rs, 4);
    EXPECT_EQ(i.rt, 5);
}

TEST(Assembler, MemoryOperands)
{
    Program p = ok("lw $t0, 16($sp)\nsw $t0, -4($gp)\nlw $t1, ($a0)\n");
    Inst lw = decode(p.word(0));
    EXPECT_EQ(lw.op, Op::Lw);
    EXPECT_EQ(lw.imm, 16);
    Inst sw = decode(p.word(1));
    EXPECT_EQ(static_cast<s16>(sw.imm), -4);
    Inst lw2 = decode(p.word(2));
    EXPECT_EQ(lw2.imm, 0);
    EXPECT_EQ(lw2.rs, 4);
}

TEST(Assembler, LabelsResolveForwardAndBackward)
{
    Program p = ok(R"(
top:
    addiu $t0, $t0, 1
    bne $t0, $t1, top
    beq $t0, $t1, done
    nop
done:
    nop
)");
    // bne at word 1 targets word 0: disp = -2.
    Inst bne = decode(p.word(1));
    EXPECT_EQ(static_cast<s16>(bne.imm), -2);
    // beq at word 2 targets word 4: disp = +1.
    Inst beq = decode(p.word(2));
    EXPECT_EQ(static_cast<s16>(beq.imm), 1);
}

TEST(Assembler, JumpTargets)
{
    Program p = ok("main:\n  j main\n  jal main\n");
    Inst j = decode(p.word(0));
    EXPECT_EQ(j.target, kTextBase >> 2);
    EXPECT_EQ(p.entry, kTextBase);
}

TEST(Assembler, EntryDefaultsToMainLabel)
{
    Program p = ok("nop\nmain:\n  nop\n");
    EXPECT_EQ(p.entry, kTextBase + 4);
}

TEST(Assembler, DataDirectives)
{
    Program p = ok(R"(
.data
w:  .word 1, 2, 0x10
h:  .half 3, 4
b:  .byte 5
    .align 2
w2: .word 6
s:  .asciiz "hi"
)");
    EXPECT_EQ(p.symbol("w"), kDataBase);
    EXPECT_EQ(p.data.bytes[0], 1);
    EXPECT_EQ(p.data.bytes[4], 2);
    EXPECT_EQ(p.data.bytes[8], 0x10);
    EXPECT_EQ(p.symbol("h"), kDataBase + 12);
    EXPECT_EQ(p.data.bytes[12], 3);
    EXPECT_EQ(p.data.bytes[14], 4);
    EXPECT_EQ(p.symbol("b"), kDataBase + 16);
    EXPECT_EQ(p.symbol("w2") % 4, 0u);
    Addr s = p.symbol("s") - kDataBase;
    EXPECT_EQ(p.data.bytes[s], 'h');
    EXPECT_EQ(p.data.bytes[s + 1], 'i');
    EXPECT_EQ(p.data.bytes[s + 2], 0);
}

TEST(Assembler, SpaceReservesZeroes)
{
    Program p = ok(".data\nbuf: .space 64\nend: .word 1\n");
    EXPECT_EQ(p.symbol("end") - p.symbol("buf"), 64u);
}

TEST(Assembler, WordWithSymbolValue)
{
    Program p = ok(R"(
.text
fn: nop
.data
tab: .word fn
)");
    u32 stored = static_cast<u32>(p.data.bytes[0]) |
                 (static_cast<u32>(p.data.bytes[1]) << 8) |
                 (static_cast<u32>(p.data.bytes[2]) << 16) |
                 (static_cast<u32>(p.data.bytes[3]) << 24);
    EXPECT_EQ(stored, kTextBase);
}

// ------------------------------------------------------------- pseudos

TEST(Assembler, PseudoMove)
{
    Program p = ok("move $t0, $t1\n");
    Inst i = decode(p.word(0));
    EXPECT_EQ(i.op, Op::Addu);
    EXPECT_EQ(i.rd, 8);
    EXPECT_EQ(i.rs, 9);
    EXPECT_EQ(i.rt, 0);
}

TEST(Assembler, PseudoLiSmall)
{
    Program p = ok("li $t0, 42\nli $t1, -5\n");
    EXPECT_EQ(p.textWords(), 2u);
    Inst a = decode(p.word(0));
    EXPECT_EQ(a.op, Op::Addiu);
    EXPECT_EQ(a.imm, 42);
    Inst b = decode(p.word(1));
    EXPECT_EQ(static_cast<s16>(b.imm), -5);
}

TEST(Assembler, PseudoLiUnsigned16)
{
    Program p = ok("li $t0, 0xbeef\n");
    EXPECT_EQ(p.textWords(), 1u);
    Inst i = decode(p.word(0));
    EXPECT_EQ(i.op, Op::Ori);
    EXPECT_EQ(i.imm, 0xbeef);
}

TEST(Assembler, PseudoLiLargeExpandsToTwo)
{
    Program p = ok("li $t0, 0x12345678\n");
    EXPECT_EQ(p.textWords(), 2u);
    Inst lui = decode(p.word(0));
    EXPECT_EQ(lui.op, Op::Lui);
    EXPECT_EQ(lui.imm, 0x1234);
    Inst ori = decode(p.word(1));
    EXPECT_EQ(ori.op, Op::Ori);
    EXPECT_EQ(ori.imm, 0x5678);
}

TEST(Assembler, PseudoLaAlwaysTwoWords)
{
    Program p = ok(".data\nx: .word 0\n.text\nla $t0, x\n");
    EXPECT_EQ(p.textWords(), 2u);
    Inst lui = decode(p.word(0));
    EXPECT_EQ(lui.op, Op::Lui);
    EXPECT_EQ(lui.imm, kDataBase >> 16);
}

TEST(Assembler, PseudoBranches)
{
    Program p = ok(R"(
t:  nop
    b t
    beqz $t0, t
    bnez $t0, t
)");
    EXPECT_EQ(decode(p.word(1)).op, Op::Beq);
    EXPECT_EQ(decode(p.word(2)).op, Op::Beq);
    EXPECT_EQ(decode(p.word(3)).op, Op::Bne);
}

TEST(Assembler, PseudoCompareBranchesExpandToTwo)
{
    Program p = ok("x: blt $t0, $t1, x\nbge $t0, $t1, x\n");
    EXPECT_EQ(p.textWords(), 4u);
    Inst slt = decode(p.word(0));
    EXPECT_EQ(slt.op, Op::Slt);
    EXPECT_EQ(slt.rd, static_cast<u8>(kRegAt));
    EXPECT_EQ(decode(p.word(1)).op, Op::Bne);
    EXPECT_EQ(decode(p.word(3)).op, Op::Beq);
}

TEST(Assembler, PseudoSizesStableAcrossPasses)
{
    // A branch over a pseudo that expands: if pass-1 sizes disagreed
    // with pass-2 emission, this displacement would be wrong.
    Program p = ok(R"(
    beq $zero, $zero, after
    li $t0, 0x12345678
after:
    nop
)");
    Inst beq = decode(p.word(0));
    EXPECT_EQ(static_cast<s16>(beq.imm), 2); // skips both li words
}

TEST(Assembler, JalrForms)
{
    Program p = ok("jalr $t0\njalr $v0, $t1\n");
    Inst a = decode(p.word(0));
    EXPECT_EQ(a.op, Op::Jalr);
    EXPECT_EQ(a.rd, static_cast<u8>(kRegRa));
    Inst b = decode(p.word(1));
    EXPECT_EQ(b.rd, 2);
}

TEST(Assembler, FpInstructions)
{
    Program p = ok("add.s $f2, $f4, $f6\nlwc1 $f1, 8($sp)\nmtc1 $t0, $f3\n");
    EXPECT_EQ(decode(p.word(0)).op, Op::AddS);
    EXPECT_EQ(decode(p.word(1)).op, Op::Lwc1);
    EXPECT_EQ(decode(p.word(2)).op, Op::Mtc1);
}

// -------------------------------------------------------------- errors

TEST(AssemblerErrors, UnknownMnemonic)
{
    auto errs = errorsOf("frobnicate $t0\n");
    ASSERT_EQ(errs.size(), 1u);
    EXPECT_NE(errs[0].find("unknown mnemonic"), std::string::npos);
    EXPECT_NE(errs[0].find("line 1"), std::string::npos);
}

TEST(AssemblerErrors, UndefinedSymbol)
{
    auto errs = errorsOf("j nowhere\n");
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("undefined symbol"), std::string::npos);
}

TEST(AssemblerErrors, DuplicateLabel)
{
    auto errs = errorsOf("x: nop\nx: nop\n");
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("duplicate label"), std::string::npos);
}

TEST(AssemblerErrors, BadOperandCount)
{
    auto errs = errorsOf("addu $t0, $t1\n");
    ASSERT_FALSE(errs.empty());
}

TEST(AssemblerErrors, BadRegisterName)
{
    auto errs = errorsOf("addu $t0, $t1, $nope\n");
    ASSERT_FALSE(errs.empty());
}

TEST(AssemblerErrors, ErrorsCarryLineNumbers)
{
    auto errs = errorsOf("nop\nnop\nbogus\n");
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("line 3"), std::string::npos);
}

TEST(AssemblerErrors, UnknownDirective)
{
    auto errs = errorsOf(".frob 1\n");
    ASSERT_FALSE(errs.empty());
    EXPECT_NE(errs[0].find("unknown directive"), std::string::npos);
}

TEST(AssemblerErrors, MessagesAndOrderArePinned)
{
    // Pass 1 reports in source order, a line's labels before its
    // statement. Pass 2 runs only when pass 1 found nothing.
    EXPECT_EQ(errorsOf("x: nop\n"
                       "x: addu $t0, $t1\n"
                       ".frob\n"
                       "frobnicate $t0\n"
                       "li $t0, sym\n"
                       "lw $t0, 4($nope)\n"
                       "lw $t0, x($sp)\n"
                       "addu $t0, ?, $t1\n"
                       ".align 13\n"
                       ".asciiz hi\n"
                       "j nowhere\n"),
              (std::vector<std::string>{
                  "line 2: duplicate label 'x'",
                  "line 2: bad operands for 'addu'",
                  "line 3: unknown directive '.frob'",
                  "line 4: unknown mnemonic 'frobnicate'",
                  "line 5: li needs register, constant",
                  "line 6: bad base register in '4($nope)'",
                  "line 7: bad offset in 'x($sp)'",
                  "line 8: cannot parse operand '?'",
                  "line 9: .align needs an exponent 0..12",
                  "line 10: .asciiz needs a quoted string",
              }));
    EXPECT_EQ(errorsOf("j nowhere\n"
                       "b odd\n"
                       "beqz $t0, far\n"
                       ".space 200000\n"
                       "far: .word missing\n"
                       ".byte 1\n"
                       "odd: nop\n"),
              (std::vector<std::string>{
                  "line 1: undefined symbol 'nowhere'",
                  "line 2: branch target not word aligned",
                  "line 3: branch target out of range",
                  "line 5: undefined symbol 'missing'",
              }));
}

TEST(AssemblerErrors, TextMayNotRunIntoData)
{
    // .text ends at kDataBase: a word or .space past it would alias
    // the data segment.
    EXPECT_EQ(errorsOf(".space 0x10000000\n"),
              (std::vector<std::string>{
                  "line 1: .text would run past 0x10000000"}));
    EXPECT_EQ(errorsOf("nop\n.space 0x0ffefffc\nnop\n"),
              (std::vector<std::string>{
                  "line 3: .text would run past 0x10000000"}));
}

TEST(AssemblerErrors, DataMayNotRunPastStackTop)
{
    // A 32-bit location counter would otherwise wrap, so that later
    // labels alias low addresses.
    EXPECT_EQ(errorsOf(".data\nbig: .space 0x100000000\nafter: .word 1\n"),
              (std::vector<std::string>{
                  "line 2: .data would run past 0x7ffffff0"}));
    EXPECT_EQ(errorsOf(".data\n.space 0x6fffffe1\n.align 5\n"),
              (std::vector<std::string>{
                  "line 3: .data would run past 0x7ffffff0"}));
}

} // namespace
} // namespace cps
