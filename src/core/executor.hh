/**
 * @file
 * Functional execution of the simulated ISA.
 *
 * The simulator is timing-directed: the Executor runs the program with
 * architecturally exact semantics, one instruction per step(), and each
 * step returns a record (PC, decoded instruction, branch outcome, memory
 * address) that the timing pipelines consume. This matches how the
 * paper's experiments use SimpleScalar: the interesting phenomena are all
 * on the instruction-fetch path, which the timing models reproduce in
 * detail.
 *
 * Syscall conventions (SPIM-flavoured, selected by $v0):
 *   1  print_int($a0)       4  print_string($a0, NUL-terminated)
 *   11 print_char($a0)      10 exit
 */

#ifndef CPS_CORE_EXECUTOR_HH
#define CPS_CORE_EXECUTOR_HH

#include <string>

#include "arch_state.hh"
#include "decoded_text.hh"
#include "mem/main_memory.hh"

namespace cps
{

/** Everything the timing models need to know about one retired op. */
struct StepRecord
{
    Addr pc = 0;
    const Inst *inst = nullptr;
    const InstInfo *info = nullptr;
    Addr nextPc = 0;
    bool taken = false;   ///< control op redirected the PC
    Addr memAddr = 0;     ///< effective address when info->isMem
    bool halted = false;  ///< program exited on this step
};

/** Architecturally exact, in-order functional executor. */
class Executor
{
  public:
    /**
     * @param text pre-decoded text segment (must outlive the executor)
     * @param mem functional backing store (data already loaded)
     */
    Executor(const DecodedText &text, MainMemory &mem);

    /** Resets registers/PC for @p prog and clears counters. */
    void reset(const Program &prog);

    /** Executes one instruction. @return the retirement record */
    StepRecord step();

    /** True once an exit syscall (or break) has executed. */
    bool halted() const { return halted_; }

    /** Dynamic instruction count so far. */
    u64 instCount() const { return instCount_; }

    ArchState &state() { return state_; }
    const ArchState &state() const { return state_; }

    /** The pre-decoded text this executor runs. */
    const DecodedText &text() const { return text_; }

    /** Text written by print syscalls. */
    const std::string &output() const { return output_; }

    /** Dynamic instruction counts per class (profiling / Table 1). */
    struct MixStats
    {
        std::array<u64, 16> byClass{};

        u64 &
        operator[](InstClass cls)
        {
            return byClass[static_cast<size_t>(cls)];
        }

        u64
        of(InstClass cls) const
        {
            return byClass[static_cast<size_t>(cls)];
        }

        u64
        total() const
        {
            u64 t = 0;
            for (u64 c : byClass)
                t += c;
            return t;
        }

        /** Share of class @p cls among all retired instructions. */
        double
        share(InstClass cls) const
        {
            u64 t = total();
            return t == 0 ? 0.0
                          : static_cast<double>(of(cls)) /
                                static_cast<double>(t);
        }

        /** Loads + stores. */
        u64
        memOps() const
        {
            return of(InstClass::Load) + of(InstClass::Store);
        }

        /** All control-transfer classes. */
        u64
        controlOps() const
        {
            return of(InstClass::Branch) + of(InstClass::Jump) +
                   of(InstClass::JumpReg);
        }
    };

    const MixStats &mix() const { return mix_; }

  private:
    void doSyscall();

    const DecodedText &text_;
    MainMemory &mem_;
    ArchState state_;
    bool halted_ = false;
    u64 instCount_ = 0;
    MixStats mix_;
    std::string output_;
};

} // namespace cps

#endif // CPS_CORE_EXECUTOR_HH
