#include "isa.hh"

#include <array>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace cps
{

namespace
{

// Primary opcode values (bits 31..26).
enum : u32
{
    kOpSpecial = 0, kOpRegimm = 1, kOpJ = 2, kOpJal = 3,
    kOpBeq = 4, kOpBne = 5, kOpBlez = 6, kOpBgtz = 7,
    kOpAddi = 8, kOpAddiu = 9, kOpSlti = 10, kOpSltiu = 11,
    kOpAndi = 12, kOpOri = 13, kOpXori = 14, kOpLui = 15,
    kOpCop1 = 17,
    kOpLb = 32, kOpLh = 33, kOpLw = 35, kOpLbu = 36, kOpLhu = 37,
    kOpSb = 40, kOpSh = 41, kOpSw = 43, kOpLwc1 = 49, kOpSwc1 = 57,
};

// SPECIAL funct values (bits 5..0 when the primary opcode is 0).
enum : u32
{
    kFnSll = 0, kFnSrl = 2, kFnSra = 3, kFnSllv = 4, kFnSrlv = 6,
    kFnSrav = 7, kFnJr = 8, kFnJalr = 9, kFnSyscall = 12, kFnBreak = 13,
    kFnMul = 24, kFnMulu = 25, kFnDiv = 26, kFnDivu = 27,
    kFnRem = 28, kFnRemu = 29,
    kFnAdd = 32, kFnAddu = 33, kFnSub = 34, kFnSubu = 35,
    kFnAnd = 36, kFnOr = 37, kFnXor = 38, kFnNor = 39,
    kFnSlt = 42, kFnSltu = 43,
};

// COP1 rs-field selectors and S-format functs.
enum : u32
{
    kCopMfc1 = 0, kCopMtc1 = 4, kCopBc = 8, kCopFmtS = 16, kCopFmtW = 20,
    kFpAdd = 0, kFpSub = 1, kFpMul = 2, kFpDiv = 3,
    kFpAbs = 5, kFpMov = 6, kFpNeg = 7,
    kFpCvtWS = 36, kFpCEq = 50, kFpCLt = 60, kFpCLe = 62,
    kFpCvtSW = 32,
};

struct OpDesc
{
    const char *name;
    InstClass cls;
    unsigned latency;
};

const OpDesc &
descFor(Op op)
{
    static const std::array<OpDesc, static_cast<size_t>(Op::kNumOps)> table =
        [] {
            std::array<OpDesc, static_cast<size_t>(Op::kNumOps)> t{};
            auto set = [&t](Op o, const char *n, InstClass c, unsigned l) {
                t[static_cast<size_t>(o)] = OpDesc{n, c, l};
            };
            set(Op::Invalid, "<invalid>", InstClass::Invalid, 1);
            set(Op::Add, "add", InstClass::IntAlu, 1);
            set(Op::Addu, "addu", InstClass::IntAlu, 1);
            set(Op::Sub, "sub", InstClass::IntAlu, 1);
            set(Op::Subu, "subu", InstClass::IntAlu, 1);
            set(Op::And, "and", InstClass::IntAlu, 1);
            set(Op::Or, "or", InstClass::IntAlu, 1);
            set(Op::Xor, "xor", InstClass::IntAlu, 1);
            set(Op::Nor, "nor", InstClass::IntAlu, 1);
            set(Op::Slt, "slt", InstClass::IntAlu, 1);
            set(Op::Sltu, "sltu", InstClass::IntAlu, 1);
            set(Op::Sll, "sll", InstClass::IntAlu, 1);
            set(Op::Srl, "srl", InstClass::IntAlu, 1);
            set(Op::Sra, "sra", InstClass::IntAlu, 1);
            set(Op::Sllv, "sllv", InstClass::IntAlu, 1);
            set(Op::Srlv, "srlv", InstClass::IntAlu, 1);
            set(Op::Srav, "srav", InstClass::IntAlu, 1);
            set(Op::Mul, "mul", InstClass::IntMult, 3);
            set(Op::Mulu, "mulu", InstClass::IntMult, 3);
            set(Op::Div, "div", InstClass::IntDiv, 20);
            set(Op::Divu, "divu", InstClass::IntDiv, 20);
            set(Op::Rem, "rem", InstClass::IntDiv, 20);
            set(Op::Remu, "remu", InstClass::IntDiv, 20);
            set(Op::Addi, "addi", InstClass::IntAlu, 1);
            set(Op::Addiu, "addiu", InstClass::IntAlu, 1);
            set(Op::Slti, "slti", InstClass::IntAlu, 1);
            set(Op::Sltiu, "sltiu", InstClass::IntAlu, 1);
            set(Op::Andi, "andi", InstClass::IntAlu, 1);
            set(Op::Ori, "ori", InstClass::IntAlu, 1);
            set(Op::Xori, "xori", InstClass::IntAlu, 1);
            set(Op::Lui, "lui", InstClass::IntAlu, 1);
            set(Op::Lb, "lb", InstClass::Load, 1);
            set(Op::Lh, "lh", InstClass::Load, 1);
            set(Op::Lw, "lw", InstClass::Load, 1);
            set(Op::Lbu, "lbu", InstClass::Load, 1);
            set(Op::Lhu, "lhu", InstClass::Load, 1);
            set(Op::Sb, "sb", InstClass::Store, 1);
            set(Op::Sh, "sh", InstClass::Store, 1);
            set(Op::Sw, "sw", InstClass::Store, 1);
            set(Op::Lwc1, "lwc1", InstClass::Load, 1);
            set(Op::Swc1, "swc1", InstClass::Store, 1);
            set(Op::J, "j", InstClass::Jump, 1);
            set(Op::Jal, "jal", InstClass::Jump, 1);
            set(Op::Jr, "jr", InstClass::JumpReg, 1);
            set(Op::Jalr, "jalr", InstClass::JumpReg, 1);
            set(Op::Beq, "beq", InstClass::Branch, 1);
            set(Op::Bne, "bne", InstClass::Branch, 1);
            set(Op::Blez, "blez", InstClass::Branch, 1);
            set(Op::Bgtz, "bgtz", InstClass::Branch, 1);
            set(Op::Bltz, "bltz", InstClass::Branch, 1);
            set(Op::Bgez, "bgez", InstClass::Branch, 1);
            set(Op::Bc1t, "bc1t", InstClass::Branch, 1);
            set(Op::Bc1f, "bc1f", InstClass::Branch, 1);
            set(Op::AddS, "add.s", InstClass::FpAlu, 2);
            set(Op::SubS, "sub.s", InstClass::FpAlu, 2);
            set(Op::MulS, "mul.s", InstClass::FpMult, 4);
            set(Op::DivS, "div.s", InstClass::FpDiv, 12);
            set(Op::AbsS, "abs.s", InstClass::FpAlu, 2);
            set(Op::NegS, "neg.s", InstClass::FpAlu, 2);
            set(Op::MovS, "mov.s", InstClass::FpAlu, 2);
            set(Op::CvtSW, "cvt.s.w", InstClass::FpCvt, 2);
            set(Op::CvtWS, "cvt.w.s", InstClass::FpCvt, 2);
            set(Op::CEqS, "c.eq.s", InstClass::FpAlu, 2);
            set(Op::CLtS, "c.lt.s", InstClass::FpAlu, 2);
            set(Op::CLeS, "c.le.s", InstClass::FpAlu, 2);
            set(Op::Mtc1, "mtc1", InstClass::FpCvt, 1);
            set(Op::Mfc1, "mfc1", InstClass::FpCvt, 1);
            set(Op::Syscall, "syscall", InstClass::Syscall, 1);
            set(Op::Break, "break", InstClass::Syscall, 1);
            return t;
        }();
    return table[static_cast<size_t>(op)];
}

u32
rType(u32 funct, u32 rs, u32 rt, u32 rd, u32 shamt)
{
    u32 w = 0;
    w = insertBits(w, 26, 6, kOpSpecial);
    w = insertBits(w, 21, 5, rs);
    w = insertBits(w, 16, 5, rt);
    w = insertBits(w, 11, 5, rd);
    w = insertBits(w, 6, 5, shamt);
    w = insertBits(w, 0, 6, funct);
    return w;
}

u32
iType(u32 opcode, u32 rs, u32 rt, u32 imm)
{
    u32 w = 0;
    w = insertBits(w, 26, 6, opcode);
    w = insertBits(w, 21, 5, rs);
    w = insertBits(w, 16, 5, rt);
    w = insertBits(w, 0, 16, imm);
    return w;
}

u32
fpType(u32 fmt, u32 ft, u32 fs, u32 fd, u32 funct)
{
    u32 w = 0;
    w = insertBits(w, 26, 6, kOpCop1);
    w = insertBits(w, 21, 5, fmt);
    w = insertBits(w, 16, 5, ft);
    w = insertBits(w, 11, 5, fs);
    w = insertBits(w, 6, 5, fd);
    w = insertBits(w, 0, 6, funct);
    return w;
}

} // namespace

u32
encode(const Inst &inst)
{
    switch (inst.op) {
      case Op::Sll: return rType(kFnSll, 0, inst.rt, inst.rd, inst.shamt);
      case Op::Srl: return rType(kFnSrl, 0, inst.rt, inst.rd, inst.shamt);
      case Op::Sra: return rType(kFnSra, 0, inst.rt, inst.rd, inst.shamt);
      case Op::Sllv: return rType(kFnSllv, inst.rs, inst.rt, inst.rd, 0);
      case Op::Srlv: return rType(kFnSrlv, inst.rs, inst.rt, inst.rd, 0);
      case Op::Srav: return rType(kFnSrav, inst.rs, inst.rt, inst.rd, 0);
      case Op::Jr: return rType(kFnJr, inst.rs, 0, 0, 0);
      case Op::Jalr: return rType(kFnJalr, inst.rs, 0, inst.rd, 0);
      case Op::Syscall: return rType(kFnSyscall, 0, 0, 0, 0);
      case Op::Break: return rType(kFnBreak, 0, 0, 0, 0);
      case Op::Mul: return rType(kFnMul, inst.rs, inst.rt, inst.rd, 0);
      case Op::Mulu: return rType(kFnMulu, inst.rs, inst.rt, inst.rd, 0);
      case Op::Div: return rType(kFnDiv, inst.rs, inst.rt, inst.rd, 0);
      case Op::Divu: return rType(kFnDivu, inst.rs, inst.rt, inst.rd, 0);
      case Op::Rem: return rType(kFnRem, inst.rs, inst.rt, inst.rd, 0);
      case Op::Remu: return rType(kFnRemu, inst.rs, inst.rt, inst.rd, 0);
      case Op::Add: return rType(kFnAdd, inst.rs, inst.rt, inst.rd, 0);
      case Op::Addu: return rType(kFnAddu, inst.rs, inst.rt, inst.rd, 0);
      case Op::Sub: return rType(kFnSub, inst.rs, inst.rt, inst.rd, 0);
      case Op::Subu: return rType(kFnSubu, inst.rs, inst.rt, inst.rd, 0);
      case Op::And: return rType(kFnAnd, inst.rs, inst.rt, inst.rd, 0);
      case Op::Or: return rType(kFnOr, inst.rs, inst.rt, inst.rd, 0);
      case Op::Xor: return rType(kFnXor, inst.rs, inst.rt, inst.rd, 0);
      case Op::Nor: return rType(kFnNor, inst.rs, inst.rt, inst.rd, 0);
      case Op::Slt: return rType(kFnSlt, inst.rs, inst.rt, inst.rd, 0);
      case Op::Sltu: return rType(kFnSltu, inst.rs, inst.rt, inst.rd, 0);

      case Op::Bltz: return iType(kOpRegimm, inst.rs, 0, inst.imm);
      case Op::Bgez: return iType(kOpRegimm, inst.rs, 1, inst.imm);

      case Op::J: {
          u32 w = insertBits(0, 26, 6, kOpJ);
          return insertBits(w, 0, 26, inst.target);
      }
      case Op::Jal: {
          u32 w = insertBits(0, 26, 6, kOpJal);
          return insertBits(w, 0, 26, inst.target);
      }

      case Op::Beq: return iType(kOpBeq, inst.rs, inst.rt, inst.imm);
      case Op::Bne: return iType(kOpBne, inst.rs, inst.rt, inst.imm);
      case Op::Blez: return iType(kOpBlez, inst.rs, 0, inst.imm);
      case Op::Bgtz: return iType(kOpBgtz, inst.rs, 0, inst.imm);

      case Op::Addi: return iType(kOpAddi, inst.rs, inst.rt, inst.imm);
      case Op::Addiu: return iType(kOpAddiu, inst.rs, inst.rt, inst.imm);
      case Op::Slti: return iType(kOpSlti, inst.rs, inst.rt, inst.imm);
      case Op::Sltiu: return iType(kOpSltiu, inst.rs, inst.rt, inst.imm);
      case Op::Andi: return iType(kOpAndi, inst.rs, inst.rt, inst.imm);
      case Op::Ori: return iType(kOpOri, inst.rs, inst.rt, inst.imm);
      case Op::Xori: return iType(kOpXori, inst.rs, inst.rt, inst.imm);
      case Op::Lui: return iType(kOpLui, 0, inst.rt, inst.imm);

      case Op::Lb: return iType(kOpLb, inst.rs, inst.rt, inst.imm);
      case Op::Lh: return iType(kOpLh, inst.rs, inst.rt, inst.imm);
      case Op::Lw: return iType(kOpLw, inst.rs, inst.rt, inst.imm);
      case Op::Lbu: return iType(kOpLbu, inst.rs, inst.rt, inst.imm);
      case Op::Lhu: return iType(kOpLhu, inst.rs, inst.rt, inst.imm);
      case Op::Sb: return iType(kOpSb, inst.rs, inst.rt, inst.imm);
      case Op::Sh: return iType(kOpSh, inst.rs, inst.rt, inst.imm);
      case Op::Sw: return iType(kOpSw, inst.rs, inst.rt, inst.imm);
      case Op::Lwc1: return iType(kOpLwc1, inst.rs, inst.rt, inst.imm);
      case Op::Swc1: return iType(kOpSwc1, inst.rs, inst.rt, inst.imm);

      case Op::Bc1t: return iType(kOpCop1, kCopBc, 1, inst.imm);
      case Op::Bc1f: return iType(kOpCop1, kCopBc, 0, inst.imm);
      case Op::Mfc1: return fpType(kCopMfc1, inst.rt, inst.rd, 0, 0);
      case Op::Mtc1: return fpType(kCopMtc1, inst.rt, inst.rd, 0, 0);

      case Op::AddS:
        return fpType(kCopFmtS, inst.rt, inst.rd, inst.shamt, kFpAdd);
      case Op::SubS:
        return fpType(kCopFmtS, inst.rt, inst.rd, inst.shamt, kFpSub);
      case Op::MulS:
        return fpType(kCopFmtS, inst.rt, inst.rd, inst.shamt, kFpMul);
      case Op::DivS:
        return fpType(kCopFmtS, inst.rt, inst.rd, inst.shamt, kFpDiv);
      case Op::AbsS:
        return fpType(kCopFmtS, 0, inst.rd, inst.shamt, kFpAbs);
      case Op::MovS:
        return fpType(kCopFmtS, 0, inst.rd, inst.shamt, kFpMov);
      case Op::NegS:
        return fpType(kCopFmtS, 0, inst.rd, inst.shamt, kFpNeg);
      case Op::CvtWS:
        return fpType(kCopFmtS, 0, inst.rd, inst.shamt, kFpCvtWS);
      case Op::CvtSW:
        return fpType(kCopFmtW, 0, inst.rd, inst.shamt, kFpCvtSW);
      case Op::CEqS:
        return fpType(kCopFmtS, inst.rt, inst.rd, 0, kFpCEq);
      case Op::CLtS:
        return fpType(kCopFmtS, inst.rt, inst.rd, 0, kFpCLt);
      case Op::CLeS:
        return fpType(kCopFmtS, inst.rt, inst.rd, 0, kFpCLe);

      case Op::Invalid:
      case Op::kNumOps:
        break;
    }
    cps_panic("encode: unsupported op %d", static_cast<int>(inst.op));
}

Inst
decode(u32 word)
{
    Inst inst;
    inst.raw = word;
    inst.rs = static_cast<u8>(bitsOf(word, 21, 5));
    inst.rt = static_cast<u8>(bitsOf(word, 16, 5));
    inst.rd = static_cast<u8>(bitsOf(word, 11, 5));
    inst.shamt = static_cast<u8>(bitsOf(word, 6, 5));
    inst.imm = static_cast<u16>(bitsOf(word, 0, 16));
    inst.target = bitsOf(word, 0, 26);

    u32 opcode = bitsOf(word, 26, 6);
    u32 funct = bitsOf(word, 0, 6);

    switch (opcode) {
      case kOpSpecial:
        switch (funct) {
          case kFnSll: inst.op = Op::Sll; break;
          case kFnSrl: inst.op = Op::Srl; break;
          case kFnSra: inst.op = Op::Sra; break;
          case kFnSllv: inst.op = Op::Sllv; break;
          case kFnSrlv: inst.op = Op::Srlv; break;
          case kFnSrav: inst.op = Op::Srav; break;
          case kFnJr: inst.op = Op::Jr; break;
          case kFnJalr: inst.op = Op::Jalr; break;
          case kFnSyscall: inst.op = Op::Syscall; break;
          case kFnBreak: inst.op = Op::Break; break;
          case kFnMul: inst.op = Op::Mul; break;
          case kFnMulu: inst.op = Op::Mulu; break;
          case kFnDiv: inst.op = Op::Div; break;
          case kFnDivu: inst.op = Op::Divu; break;
          case kFnRem: inst.op = Op::Rem; break;
          case kFnRemu: inst.op = Op::Remu; break;
          case kFnAdd: inst.op = Op::Add; break;
          case kFnAddu: inst.op = Op::Addu; break;
          case kFnSub: inst.op = Op::Sub; break;
          case kFnSubu: inst.op = Op::Subu; break;
          case kFnAnd: inst.op = Op::And; break;
          case kFnOr: inst.op = Op::Or; break;
          case kFnXor: inst.op = Op::Xor; break;
          case kFnNor: inst.op = Op::Nor; break;
          case kFnSlt: inst.op = Op::Slt; break;
          case kFnSltu: inst.op = Op::Sltu; break;
          default: inst.op = Op::Invalid; break;
        }
        break;
      case kOpRegimm:
        inst.op = (inst.rt == 0) ? Op::Bltz
                : (inst.rt == 1) ? Op::Bgez : Op::Invalid;
        break;
      case kOpJ: inst.op = Op::J; break;
      case kOpJal: inst.op = Op::Jal; break;
      case kOpBeq: inst.op = Op::Beq; break;
      case kOpBne: inst.op = Op::Bne; break;
      case kOpBlez: inst.op = Op::Blez; break;
      case kOpBgtz: inst.op = Op::Bgtz; break;
      case kOpAddi: inst.op = Op::Addi; break;
      case kOpAddiu: inst.op = Op::Addiu; break;
      case kOpSlti: inst.op = Op::Slti; break;
      case kOpSltiu: inst.op = Op::Sltiu; break;
      case kOpAndi: inst.op = Op::Andi; break;
      case kOpOri: inst.op = Op::Ori; break;
      case kOpXori: inst.op = Op::Xori; break;
      case kOpLui: inst.op = Op::Lui; break;
      case kOpCop1:
        switch (inst.rs) {
          case kCopMfc1: inst.op = Op::Mfc1; break;
          case kCopMtc1: inst.op = Op::Mtc1; break;
          case kCopBc:
            inst.op = (inst.rt == 1) ? Op::Bc1t
                    : (inst.rt == 0) ? Op::Bc1f : Op::Invalid;
            break;
          case kCopFmtS:
            switch (funct) {
              case kFpAdd: inst.op = Op::AddS; break;
              case kFpSub: inst.op = Op::SubS; break;
              case kFpMul: inst.op = Op::MulS; break;
              case kFpDiv: inst.op = Op::DivS; break;
              case kFpAbs: inst.op = Op::AbsS; break;
              case kFpMov: inst.op = Op::MovS; break;
              case kFpNeg: inst.op = Op::NegS; break;
              case kFpCvtWS: inst.op = Op::CvtWS; break;
              case kFpCEq: inst.op = Op::CEqS; break;
              case kFpCLt: inst.op = Op::CLtS; break;
              case kFpCLe: inst.op = Op::CLeS; break;
              default: inst.op = Op::Invalid; break;
            }
            break;
          case kCopFmtW:
            inst.op = (funct == kFpCvtSW) ? Op::CvtSW : Op::Invalid;
            break;
          default: inst.op = Op::Invalid; break;
        }
        break;
      case kOpLb: inst.op = Op::Lb; break;
      case kOpLh: inst.op = Op::Lh; break;
      case kOpLw: inst.op = Op::Lw; break;
      case kOpLbu: inst.op = Op::Lbu; break;
      case kOpLhu: inst.op = Op::Lhu; break;
      case kOpSb: inst.op = Op::Sb; break;
      case kOpSh: inst.op = Op::Sh; break;
      case kOpSw: inst.op = Op::Sw; break;
      case kOpLwc1: inst.op = Op::Lwc1; break;
      case kOpSwc1: inst.op = Op::Swc1; break;
      default: inst.op = Op::Invalid; break;
    }
    return inst;
}

InstInfo
analyze(const Inst &inst)
{
    InstInfo info;
    const OpDesc &d = descFor(inst.op);
    info.cls = d.cls;
    info.latency = d.latency;

    auto gpr = [](unsigned r) { return static_cast<int>(r); };
    auto fpr = [](unsigned r) { return kRegFprBase + static_cast<int>(r); };

    switch (inst.op) {
      // rd <- rs op rt
      case Op::Add: case Op::Addu: case Op::Sub: case Op::Subu:
      case Op::And: case Op::Or: case Op::Xor: case Op::Nor:
      case Op::Slt: case Op::Sltu: case Op::Sllv: case Op::Srlv:
      case Op::Srav: case Op::Mul: case Op::Mulu: case Op::Div:
      case Op::Divu: case Op::Rem: case Op::Remu:
        info.dest = gpr(inst.rd);
        info.src1 = gpr(inst.rs);
        info.src2 = gpr(inst.rt);
        break;

      // rd <- rt shift shamt
      case Op::Sll: case Op::Srl: case Op::Sra:
        info.dest = gpr(inst.rd);
        info.src1 = gpr(inst.rt);
        break;

      // rt <- rs op imm
      case Op::Addi: case Op::Addiu: case Op::Slti: case Op::Sltiu:
      case Op::Andi: case Op::Ori: case Op::Xori:
        info.dest = gpr(inst.rt);
        info.src1 = gpr(inst.rs);
        break;

      case Op::Lui:
        info.dest = gpr(inst.rt);
        break;

      case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu: case Op::Lhu:
        info.dest = gpr(inst.rt);
        info.src1 = gpr(inst.rs);
        info.isMem = true;
        break;
      case Op::Lwc1:
        info.dest = fpr(inst.rt);
        info.src1 = gpr(inst.rs);
        info.isMem = true;
        break;
      case Op::Sb: case Op::Sh: case Op::Sw:
        info.src1 = gpr(inst.rs);
        info.src2 = gpr(inst.rt);
        info.isMem = true;
        break;
      case Op::Swc1:
        info.src1 = gpr(inst.rs);
        info.src2 = fpr(inst.rt);
        info.isMem = true;
        break;

      case Op::J:
        info.isControl = true;
        break;
      case Op::Jal:
        info.dest = gpr(kRegRa);
        info.isControl = true;
        break;
      case Op::Jr:
        info.src1 = gpr(inst.rs);
        info.isControl = true;
        break;
      case Op::Jalr:
        info.dest = gpr(inst.rd);
        info.src1 = gpr(inst.rs);
        info.isControl = true;
        break;

      case Op::Beq: case Op::Bne:
        info.src1 = gpr(inst.rs);
        info.src2 = gpr(inst.rt);
        info.isControl = true;
        break;
      case Op::Blez: case Op::Bgtz: case Op::Bltz: case Op::Bgez:
        info.src1 = gpr(inst.rs);
        info.isControl = true;
        break;
      case Op::Bc1t: case Op::Bc1f:
        info.src1 = kRegFcc;
        info.isControl = true;
        break;

      // fd <- fs op ft
      case Op::AddS: case Op::SubS: case Op::MulS: case Op::DivS:
        info.dest = fpr(inst.shamt);
        info.src1 = fpr(inst.rd);
        info.src2 = fpr(inst.rt);
        break;
      // fd <- op fs
      case Op::AbsS: case Op::NegS: case Op::MovS: case Op::CvtSW:
      case Op::CvtWS:
        info.dest = fpr(inst.shamt);
        info.src1 = fpr(inst.rd);
        break;
      // fcc <- fs cmp ft
      case Op::CEqS: case Op::CLtS: case Op::CLeS:
        info.dest = kRegFcc;
        info.src1 = fpr(inst.rd);
        info.src2 = fpr(inst.rt);
        break;
      case Op::Mtc1:
        info.dest = fpr(inst.rd);
        info.src1 = gpr(inst.rt);
        break;
      case Op::Mfc1:
        info.dest = gpr(inst.rt);
        info.src1 = fpr(inst.rd);
        break;

      case Op::Syscall:
        // Syscalls read/write GPRs by convention; pipelines serialise
        // around them, so precise register lists are not required.
        info.src1 = gpr(kRegV0);
        info.src2 = gpr(kRegA0);
        break;
      case Op::Break:
        break;

      case Op::Invalid:
      case Op::kNumOps:
        info.cls = InstClass::Invalid;
        break;
    }

    // Writes to $zero are discarded; drop the dependence edge too.
    if (info.dest == gpr(kRegZero))
        info.dest = kRegNone;
    // Reads of $zero never stall.
    if (info.src1 == gpr(kRegZero))
        info.src1 = kRegNone;
    if (info.src2 == gpr(kRegZero))
        info.src2 = kRegNone;

    // The canonical NOP (sll $zero, $zero, 0), detected structurally so
    // hand-built Inst values (raw == 0) classify correctly too.
    if (inst.op == Op::Sll && inst.rd == 0 && inst.rt == 0 &&
        inst.shamt == 0) {
        info.cls = InstClass::Nop;
    }

    return info;
}

const char *
mnemonic(Op op)
{
    return descFor(op).name;
}

std::optional<Op>
opFromMnemonic(std::string_view name)
{
    // Keys view the static names in descFor().
    static const std::unordered_map<std::string_view, Op> table = [] {
        std::unordered_map<std::string_view, Op> m;
        for (unsigned i = 1; i < static_cast<unsigned>(Op::kNumOps); ++i) {
            Op op = static_cast<Op>(i);
            m[mnemonic(op)] = op;
        }
        return m;
    }();
    auto it = table.find(name);
    if (it == table.end())
        return std::nullopt;
    return it->second;
}

const char *
gprName(unsigned index)
{
    static const char *names[kNumGpr] = {
        "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
        "$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
        "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
        "$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
    };
    cps_assert(index < kNumGpr, "bad gpr index");
    return names[index];
}

bool
isLink(Op op)
{
    return op == Op::Jal || op == Op::Jalr;
}

bool
isFp(Op op)
{
    switch (op) {
      case Op::Lwc1: case Op::Swc1: case Op::Bc1t: case Op::Bc1f:
      case Op::AddS: case Op::SubS: case Op::MulS: case Op::DivS:
      case Op::AbsS: case Op::NegS: case Op::MovS: case Op::CvtSW:
      case Op::CvtWS: case Op::CEqS: case Op::CLtS: case Op::CLeS:
      case Op::Mtc1: case Op::Mfc1:
        return true;
      default:
        return false;
    }
}

} // namespace cps
