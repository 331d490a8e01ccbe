#include "process_campaign.hh"

#include "common/logging.hh"

namespace cps
{
namespace fault
{

using harness::CellFault;
using harness::CellOutcome;
using harness::CellRunner;
using harness::CellRunnerConfig;
using harness::CellState;
using harness::RunRequest;

namespace
{

/** Byte-for-byte equality of the fields a table could print. */
bool
sameOutcome(const RunOutcome &a, const RunOutcome &b)
{
    return a.result.instructions == b.result.instructions &&
           a.result.cycles == b.result.cycles &&
           a.result.programExited == b.result.programExited &&
           a.result.status == b.result.status &&
           a.icacheMissRate == b.icacheMissRate &&
           a.indexCacheMissRate == b.indexCacheMissRate &&
           a.icacheMisses == b.icacheMisses &&
           a.bufferHits == b.bufferHits &&
           a.missLatencyTotal == b.missLatencyTotal;
}

} // namespace

harness::CellState
expectedStateFor(harness::CellFault fault)
{
    switch (fault) {
      case CellFault::None:
        return CellState::Ok;
      case CellFault::Crash:
        return CellState::Crashed;
      case CellFault::KillSelf:
        return CellState::Crashed;
      case CellFault::Hang:
        return CellState::Timeout;
      case CellFault::Garble:
        return CellState::ProtocolError;
      case CellFault::ExitNonzero:
        return CellState::ExitedError;
      case CellFault::CrashOnce:
        // With at least one retry the second attempt succeeds.
        return CellState::Ok;
      case CellFault::SlowResult:
        // Late, but it succeeds.
        return CellState::Ok;
    }
    return CellState::Ok;
}

ProcessCampaignResult
runProcessCampaign(const BenchProgram &bench, const MachineConfig &cfg,
                   const ProcessCampaignConfig &ccfg)
{
    // The faults are applied honestly: running them inline would crash
    // or hang this process, which is exactly what isolation prevents.
    CellRunnerConfig inline_cfg;
    CellRunner baseline_runner(inline_cfg);

    RunRequest healthy{&bench, cfg, ccfg.insns, CellFault::None};
    CellOutcome baseline = baseline_runner.run(healthy);
    cps_assert(baseline.status.ok(),
               "process campaign baseline cell failed: %s",
               baseline.status.describe().c_str());

    CellRunnerConfig iso_cfg;
    iso_cfg.isolate = true;
    iso_cfg.timeoutMs = ccfg.timeoutMs;
    iso_cfg.retries = ccfg.retries;
    iso_cfg.backoffMs = ccfg.backoffMs;
    CellRunner runner(iso_cfg);

    // CrashOnce only recovers when a retry exists; grant it one even
    // in a fail-fast campaign so the retry path itself is exercised.
    CellRunnerConfig retry_cfg = iso_cfg;
    if (retry_cfg.retries == 0)
        retry_cfg.retries = 1;
    CellRunner retry_runner(retry_cfg);

    const CellFault kFaults[] = {CellFault::Crash, CellFault::KillSelf,
                                 CellFault::Hang, CellFault::Garble,
                                 CellFault::ExitNonzero,
                                 CellFault::CrashOnce};

    ProcessCampaignResult res;
    for (CellFault fault : kFaults) {
        ProcessFaultRecord rec;
        rec.fault = fault;
        rec.expected = expectedStateFor(fault);

        const CellRunner &r =
            fault == CellFault::CrashOnce ? retry_runner : runner;

        // Healthy cells on either side of the faulted one: their
        // results must be untouched by the neighbour's death.
        CellOutcome before = r.run(healthy);
        RunRequest faulted = healthy;
        faulted.injectFault = fault;
        CellOutcome out = r.run(faulted);
        CellOutcome after = r.run(healthy);

        rec.observed = out.status.state;
        rec.asExpected = rec.observed == rec.expected;
        rec.detail = out.status.describe();
        rec.cleanMatched = before.status.ok() && after.status.ok() &&
                           sameOutcome(before.outcome, baseline.outcome) &&
                           sameOutcome(after.outcome, baseline.outcome);
        if (fault == CellFault::CrashOnce && rec.asExpected) {
            // The whole point of the retry: attempt 1 died, attempt 2
            // delivered the identical deterministic result.
            rec.asExpected = out.status.attempts == 2 &&
                             sameOutcome(out.outcome, baseline.outcome);
        }

        if (!rec.asExpected)
            ++res.mismatches;
        if (!rec.cleanMatched)
            ++res.cleanMismatches;
        res.records.push_back(std::move(rec));
    }
    return res;
}

} // namespace fault
} // namespace cps
