/**
 * @file
 * Control-flow prediction front end shared by both pipeline models:
 * direction predictor (per Table 2), branch target buffer, and return
 * address stack.
 *
 * The simulator is timing-directed along the correct path: only
 * correct-path instructions enter the pipelines. On a misprediction the
 * front end reports where fetch would have gone (ControlOutcome::
 * wrongPath); each pipeline then fetches straight-line from there until
 * the branch resolves (simulateWrongPath in paths.hh), so wrong-path
 * I-cache pollution and memory-channel occupancy are modelled, and
 * correct-path fetch restarts after resolution.
 */

#ifndef CPS_PIPELINE_FRONTEND_HH
#define CPS_PIPELINE_FRONTEND_HH

#include <memory>

#include "branch/predictors.hh"
#include "common/bitops.hh"
#include "common/stats.hh"
#include "config.hh"
#include "core/executor.hh"

namespace cps
{

/** What the front end concluded about one control instruction. */
struct ControlOutcome
{
    bool mispredict = false; ///< full redirect: stall fetch until resolve
    bool minorBubble = false; ///< target computed at decode: 1-cycle hole
    /**
     * Where fetch runs until the branch resolves (the wrong path).
     * kAddrInvalid when the front end had no target to follow.
     */
    Addr wrongPath = kAddrInvalid;
};

/** Direction predictor + BTB + RAS, with paper-accurate configurations. */
class FrontEnd
{
  public:
    FrontEnd(PredictorKind kind, StatSet &stats)
        : dir_(makePredictor(kind)),
          statBranches_(stats.scalar("bpred.cond_branches")),
          statDirMiss_(stats.scalar("bpred.dir_mispredicts")),
          statIndirect_(stats.scalar("bpred.indirect_jumps")),
          statTargetMiss_(stats.scalar("bpred.target_mispredicts"))
    {}

    /**
     * Runs prediction for the control instruction described by @p rec
     * and trains all structures with the actual outcome.
     */
    ControlOutcome
    handleControl(const StepRecord &rec)
    {
        ControlOutcome out;
        const Inst &inst = *rec.inst;
        switch (rec.info->cls) {
          case InstClass::Branch: {
            statBranches_.inc();
            bool pred = dir_->predict(rec.pc);
            dir_->update(rec.pc, rec.taken);
            if (pred != rec.taken) {
                statDirMiss_.inc();
                out.mispredict = true;
                if (rec.taken) {
                    // Predicted not-taken: fetch runs sequentially.
                    out.wrongPath = rec.pc + 4;
                } else {
                    // Predicted taken: fetch runs at the branch target.
                    out.wrongPath =
                        rec.pc + 4 +
                        (static_cast<u32>(signExtend(inst.imm, 16)) << 2);
                }
            } else if (rec.taken) {
                // Correct direction; the target still has to come from
                // somewhere. A BTB miss costs one fetch bubble (target
                // available after decode).
                if (btb_.lookup(rec.pc) != rec.nextPc)
                    out.minorBubble = true;
            }
            if (rec.taken)
                btb_.update(rec.pc, rec.nextPc);
            break;
          }
          case InstClass::Jump: {
            // Direct j/jal: always taken, target in the instruction.
            if (btb_.lookup(rec.pc) != rec.nextPc)
                out.minorBubble = true;
            btb_.update(rec.pc, rec.nextPc);
            if (inst.op == Op::Jal)
                ras_.push(rec.pc + 4);
            break;
          }
          case InstClass::JumpReg: {
            statIndirect_.inc();
            Addr predicted;
            bool is_return = inst.op == Op::Jr && inst.rs == kRegRa;
            if (is_return)
                predicted = ras_.pop();
            else
                predicted = btb_.lookup(rec.pc);
            if (predicted != rec.nextPc) {
                statTargetMiss_.inc();
                out.mispredict = true;
                out.wrongPath = predicted; // may be kAddrInvalid (no pred)
            }
            if (!is_return)
                btb_.update(rec.pc, rec.nextPc);
            if (inst.op == Op::Jalr)
                ras_.push(rec.pc + 4);
            break;
          }
          default:
            break;
        }
        return out;
    }

    DirectionPredictor &predictor() { return *dir_; }

  private:
    static std::unique_ptr<DirectionPredictor>
    makePredictor(PredictorKind kind)
    {
        switch (kind) {
          case PredictorKind::Bimodal2k:
            return std::make_unique<BimodalPredictor>(2048);
          case PredictorKind::Gshare14:
            return std::make_unique<GsharePredictor>(14);
          case PredictorKind::Hybrid1k:
            return std::make_unique<HybridPredictor>(1024);
        }
        cps_panic("unknown predictor kind");
    }

    std::unique_ptr<DirectionPredictor> dir_;
    Btb btb_;
    ReturnAddressStack ras_;
    Counter &statBranches_;
    Counter &statDirMiss_;
    Counter &statIndirect_;
    Counter &statTargetMiss_;
};

} // namespace cps

#endif // CPS_PIPELINE_FRONTEND_HH
