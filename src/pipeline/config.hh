/**
 * @file
 * Pipeline configuration mirroring the paper's Table 2.
 */

#ifndef CPS_PIPELINE_CONFIG_HH
#define CPS_PIPELINE_CONFIG_HH

#include <string>

#include "common/types.hh"

namespace cps
{

/** Which Table 2 direction predictor to instantiate. */
enum class PredictorKind
{
    Bimodal2k,   ///< 1-issue: bimodal, 2048 entries
    Gshare14,    ///< 4-issue: gshare, 14-bit history
    Hybrid1k,    ///< 8-issue: hybrid, 1024-entry meta table
};

/** Machine-width and resource parameters (Table 2). */
struct PipelineConfig
{
    bool inOrder = false;
    unsigned width = 4;        ///< fetch/decode/issue/commit width
    unsigned fetchQueue = 8;   ///< fetch-queue entries
    unsigned ruuSize = 64;     ///< register update unit entries
    unsigned lsqSize = 32;     ///< load/store queue entries

    unsigned numAlu = 4;
    unsigned numMult = 1;      ///< integer multiply/divide units
    unsigned numMemPorts = 2;
    unsigned numFpAlu = 4;
    unsigned numFpMult = 1;    ///< FP multiply/divide units

    PredictorKind predictor = PredictorKind::Gshare14;

    /**
     * Extra cycles of front-end refill charged on a full misprediction
     * (fetch redirect + decode refill in a 5+-stage front end).
     */
    unsigned mispredictExtra = 2;

    /**
     * Progress-watchdog heartbeat: loop iterations between checks of
     * the retired-instruction counter. Iteration counts (not wall
     * clock) keep the trip point deterministic at any host speed.
     */
    u64 watchdogInterval = u64{1} << 22;
    /**
     * Consecutive heartbeat checks without a retirement before the run
     * aborts with RunStatus::Stalled instead of spinning forever.
     * 0 disables the watchdog.
     */
    unsigned watchdogStallLimit = 4;
};

/** Whether a timed run completed or was cut short. */
enum class RunStatus : u8
{
    Ok = 0,
    Stalled = 1, ///< the progress watchdog saw no retirement for too long
};

/** Short stable name for a status ("ok", "stalled"). */
inline const char *
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok:
        return "ok";
      case RunStatus::Stalled:
        return "stalled";
    }
    return "?";
}

/** Result of a timed run. */
struct RunResult
{
    u64 instructions = 0;
    Cycle cycles = 0;
    bool programExited = false;
    RunStatus status = RunStatus::Ok;
    std::string statusDetail; ///< diagnosis when status != Ok

    bool ok() const { return status == RunStatus::Ok; }

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                                 static_cast<double>(cycles);
    }
};

} // namespace cps

#endif // CPS_PIPELINE_CONFIG_HH
