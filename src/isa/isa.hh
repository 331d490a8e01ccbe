/**
 * @file
 * The simulated 32-bit RISC instruction set.
 *
 * The paper re-encoded SimpleScalar's loosely packed 64-bit PISA
 * instructions into a dense 32-bit format "resembling the MIPS IV
 * encoding" so that compression results would be representative of real
 * microprocessors. We do the same: this ISA is a classic MIPS-flavoured
 * three-format (R/I/J) 32-bit encoding with 32 integer registers, 32
 * single-precision FP registers and one FP condition flag.
 */

#ifndef CPS_ISA_ISA_HH
#define CPS_ISA_ISA_HH

#include <optional>
#include <string>
#include <string_view>

#include "common/types.hh"

namespace cps
{

/** Number of architected integer registers. */
constexpr unsigned kNumGpr = 32;
/** Number of architected floating-point registers. */
constexpr unsigned kNumFpr = 32;

/** Unified register-index space used for dependence tracking. */
constexpr int kRegNone = -1;
constexpr int kRegGprBase = 0;  ///< GPRs occupy [0, 32)
constexpr int kRegFprBase = 32; ///< FPRs occupy [32, 64)
constexpr int kRegFcc = 64;     ///< the FP condition flag
constexpr int kNumUnifiedRegs = 65;

/** Conventional MIPS register aliases used by the assembler and progen. */
enum GprAlias : u8
{
    kRegZero = 0, kRegAt = 1, kRegV0 = 2, kRegV1 = 3,
    kRegA0 = 4, kRegA1 = 5, kRegA2 = 6, kRegA3 = 7,
    kRegT0 = 8, kRegT7 = 15, kRegS0 = 16, kRegS7 = 23,
    kRegT8 = 24, kRegT9 = 25, kRegK0 = 26, kRegK1 = 27,
    kRegGp = 28, kRegSp = 29, kRegFp = 30, kRegRa = 31,
};

/** Semantic operations; the encoding maps each to a unique bit pattern. */
enum class Op : u8
{
    Invalid = 0,

    // Integer register-register ALU.
    Add, Addu, Sub, Subu, And, Or, Xor, Nor, Slt, Sltu,
    Sll, Srl, Sra, Sllv, Srlv, Srav,
    Mul, Mulu, Div, Divu, Rem, Remu,

    // Integer immediate ALU.
    Addi, Addiu, Slti, Sltiu, Andi, Ori, Xori, Lui,

    // Memory.
    Lb, Lh, Lw, Lbu, Lhu, Sb, Sh, Sw, Lwc1, Swc1,

    // Control transfer.
    J, Jal, Jr, Jalr, Beq, Bne, Blez, Bgtz, Bltz, Bgez, Bc1t, Bc1f,

    // Single-precision floating point.
    AddS, SubS, MulS, DivS, AbsS, NegS, MovS, CvtSW, CvtWS,
    CEqS, CLtS, CLeS, Mtc1, Mfc1,

    // System.
    Syscall, Break,

    kNumOps,
};

/** Broad functional classes; each maps to a function-unit pool. */
enum class InstClass : u8
{
    Nop,
    IntAlu,
    IntMult,
    IntDiv,
    Load,
    Store,
    Branch,  ///< conditional, PC-relative
    Jump,    ///< unconditional direct (j / jal)
    JumpReg, ///< unconditional indirect (jr / jalr)
    FpAlu,
    FpMult,
    FpDiv,
    FpCvt,
    Syscall,
    Invalid,
};

/** A fully decoded instruction. */
struct Inst
{
    Op op = Op::Invalid;
    u8 rs = 0;     ///< R/I-type source register (FP: fmt field)
    u8 rt = 0;     ///< R/I-type second source / I-type dest (FP: ft)
    u8 rd = 0;     ///< R-type destination (FP: fs)
    u8 shamt = 0;  ///< shift amount (FP: fd)
    u16 imm = 0;   ///< I-type immediate, raw (sign extension is per-op)
    u32 target = 0; ///< J-type 26-bit word target
    u32 raw = 0;   ///< original 32-bit encoding

    bool operator==(const Inst &o) const = default;
};

/** Static properties derived from a decoded instruction. */
struct InstInfo
{
    InstClass cls = InstClass::Invalid;
    int dest = kRegNone;  ///< unified destination register
    int src1 = kRegNone;  ///< unified source registers
    int src2 = kRegNone;
    int src3 = kRegNone;
    unsigned latency = 1; ///< execute latency in cycles
    bool isControl = false;
    bool isMem = false;
};

/** Encodes a decoded instruction into its 32-bit representation. */
u32 encode(const Inst &inst);

/** Decodes a 32-bit word. Unrecognised patterns yield Op::Invalid. */
Inst decode(u32 word);

/** Derives class, registers and latency for a decoded instruction. */
InstInfo analyze(const Inst &inst);

/** The canonical mnemonic for an operation ("addu", "c.lt.s", ...). */
const char *mnemonic(Op op);

/** Looks up an operation by mnemonic; nullopt when unknown. */
std::optional<Op> opFromMnemonic(std::string_view name);

/** Conventional name of integer register @p index ("$sp", "$t0", ...). */
const char *gprName(unsigned index);

/** Renders one instruction as assembly text. @p pc resolves branches. */
std::string disassemble(const Inst &inst, Addr pc = 0);

/** Convenience: decode then disassemble a raw word. */
std::string disassemble(u32 word, Addr pc = 0);

/** The canonical no-op encoding (sll $zero, $zero, 0). */
constexpr u32 kNopWord = 0;

/** True when @p op writes the link register (jal / jalr). */
bool isLink(Op op);

/** True when the operation reads or writes FP state. */
bool isFp(Op op);

} // namespace cps

#endif // CPS_ISA_ISA_HH
