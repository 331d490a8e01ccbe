/**
 * @file
 * A two-pass assembler for the simulated ISA.
 *
 * Supported syntax (a practical subset of classic MIPS assembler syntax):
 *
 *   - comments: '#' to end of line
 *   - labels:   'name:'
 *   - directives: .text .data .word .half .byte .space .align .asciiz
 *                 .globl (accepted, ignored)
 *   - registers: $0..$31, conventional aliases ($sp, $t0, ...), $f0..$f31
 *   - memory operands: offset($reg)
 *   - pseudo-instructions: nop, move, li, la, b, beqz, bnez, blt, bgt,
 *     ble, bge, neg, not (expanded deterministically so that pass-1
 *     sizes always match pass-2 emission)
 *   - location counters: .text may not run past kDataBase, nor .data
 *     past kStackTop
 *
 * There are no branch delay slots in this ISA.
 */

#ifndef CPS_ASMKIT_ASSEMBLER_HH
#define CPS_ASMKIT_ASSEMBLER_HH

#include <string>
#include <vector>

#include "program.hh"

namespace cps
{

/** Result of assembling a source buffer. */
struct AsmResult
{
    Program program;
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }
};

/** Assembles @p source into a program image. Never exits; errors are
 *  collected with line numbers in the result. */
AsmResult assembleSource(const std::string &source);

/** Assembles @p source, calling fatal() on any error (for tools). */
Program assembleOrDie(const std::string &source);

} // namespace cps

#endif // CPS_ASMKIT_ASSEMBLER_HH
