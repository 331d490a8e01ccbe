/**
 * @file
 * Crash-isolated execution of one experiment-matrix cell.
 *
 * A table run is a long campaign of independent simulations; one hung
 * or crashing cell must not take down the parent process and discard
 * every completed cell. With isolation enabled (CPS_ISOLATE=1) the
 * CellRunner forks a worker per cell, the worker runs runMachine and
 * ships the RunOutcome back over a pipe as a CRC'd frame
 * (common/ipc_frame), and the parent classifies whatever happens —
 * verified result, crash signal, nonzero exit, garbled stream, or
 * deadline expiry — into a structured CellStatus. Failures are retried
 * with exponential backoff, by default once after 100 ms (the cells are
 * deterministic, so retries target transient host causes: OOM kills,
 * external signals). The default path stays inline and byte-identical
 * to the pre-isolation engine.
 *
 * Knobs (read once per process by CellRunnerConfig::fromEnv):
 *   CPS_ISOLATE=1          fork one worker per cell (default: inline)
 *   CPS_CELL_TIMEOUT_MS    per-cell wall-clock deadline (default 0 = none)
 */

#ifndef CPS_HARNESS_CELL_RUNNER_HH
#define CPS_HARNESS_CELL_RUNNER_HH

#include <string>
#include <vector>

#include "common/result.hh"
#include "suite.hh"

namespace cps
{
namespace harness
{

/**
 * Deliberate worker misbehaviour, injected by tests to prove the
 * parent survives each failure mode. Faults fire inside the worker
 * before (or instead of) the simulation; under the inline path they are
 * applied honestly and will take the process down — isolation is the
 * point.
 */
enum class CellFault : u8
{
    None,
    Crash,       ///< die by SIGSEGV-style signal (raise SIGABRT)
    KillSelf,    ///< kill(getpid(), SIGKILL): an external OOM-style kill
    Hang,        ///< never produce a result (sleep forever)
    Garble,      ///< write a corrupt result frame, then exit 0
    ExitNonzero, ///< exit(3) without producing a result
    CrashOnce,   ///< Crash on the first attempt only (retry succeeds)
    SlowResult,  ///< sleep faultDelayMs before running, then succeed —
                 ///< lands the result right at a configured deadline
};

/** One cell of an experiment matrix. */
struct RunRequest
{
    const BenchProgram *bench = nullptr; ///< must outlive the run
    MachineConfig cfg;
    u64 maxInsns = 0;
    CellFault injectFault = CellFault::None;
    u32 faultDelayMs = 0; ///< SlowResult's sleep before executing
};

/** How a cell's execution ended. */
enum class CellState : u8
{
    Ok,            ///< verified result in hand
    Crashed,       ///< worker died by signal (termSignal)
    ExitedError,   ///< worker exited nonzero without a result (exitCode)
    Timeout,       ///< worker exceeded the wall-clock deadline
    ProtocolError, ///< worker's result stream was garbled or missing
    Stalled,       ///< the in-simulator progress watchdog tripped
};

/** Structured account of one cell's execution (final attempt). */
struct CellStatus
{
    CellState state = CellState::Ok;
    int termSignal = 0;       ///< valid for Crashed
    int exitCode = 0;         ///< valid for ExitedError
    unsigned attempts = 1;    ///< attempts consumed (1 = first try)
    bool resumed = false;     ///< loaded from the resume store
    std::string detail;       ///< human-readable diagnosis

    bool ok() const { return state == CellState::Ok; }

    /** "crashed (signal 9) after 2 attempts" etc. */
    std::string describe() const;
};

/**
 * Table placeholder for a cell that exhausted its retries:
 * "FAILED(sig=6)", "FAILED(timeout)", "FAILED(exit=3)", ...
 */
std::string failLabel(const CellStatus &status);

/** A cell's result plus how it was obtained. */
struct CellOutcome
{
    RunOutcome outcome; ///< zeroed when !status.ok()
    CellStatus status;
};

/** Resilience policy for cell execution. */
struct CellRunnerConfig
{
    bool isolate = false;    ///< fork one worker per cell
    long timeoutMs = 0;      ///< per-cell deadline; 0 = none
    unsigned retries = 1;    ///< extra attempts after a failure
    unsigned backoffMs = 100; ///< base backoff, doubled up to 10 times

    /** The process-wide policy: CPS_ISOLATE and CPS_CELL_TIMEOUT_MS,
     *  read once, with the default retries and backoff. */
    static const CellRunnerConfig &fromEnv();
};

/**
 * Executes matrix cells under a resilience policy. Stateless apart
 * from the config; safe to share across pool threads (forks are
 * serialized internally, workers run concurrently).
 */
class CellRunner
{
  public:
    explicit CellRunner(CellRunnerConfig cfg) : cfg_(cfg) {}

    const CellRunnerConfig &config() const { return cfg_; }

    /** Runs @p req with bounded retry; never throws or aborts the
     *  calling process when isolation is on. */
    CellOutcome run(const RunRequest &req) const;

  private:
    CellOutcome runAttempt(const RunRequest &req, unsigned attempt) const;
    CellOutcome runInline(const RunRequest &req, unsigned attempt) const;
    CellOutcome runIsolated(const RunRequest &req, unsigned attempt) const;

    CellRunnerConfig cfg_;
};

/**
 * Result-envelope serialization shared by the worker pipe and the
 * resume store. decodeRunOutcomeChecked verifies structure; the
 * surrounding frame or cache entry already carries the CRC.
 */
std::vector<u8> encodeRunOutcome(const RunOutcome &out);
Result<RunOutcome> decodeRunOutcomeChecked(const std::vector<u8> &bytes);

/**
 * Cache key of one cell: every input the outcome is a function of —
 * the benchmark's full program key, every MachineConfig field, the
 * instruction budget — plus an engine version tag, so any code or
 * config change invalidates resume-store entries by construction.
 */
std::string cellKey(const RunRequest &req);

} // namespace harness
} // namespace cps

#endif // CPS_HARNESS_CELL_RUNNER_HH
