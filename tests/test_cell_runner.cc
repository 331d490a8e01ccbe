/**
 * @file
 * Resilient-harness contract tests: the crash-isolated cell runner must
 * survive every way a worker can die — SIGKILL mid-cell, a hang past
 * the deadline, a garbled result frame, a plain nonzero exit — and
 * report each as a structured CellStatus while neighbouring healthy
 * cells produce results identical to an inline run. Also covers the
 * CRC'd IPC framing the worker pipe rides on, the result-envelope
 * serialization, the retry/backoff loop, the deterministic progress
 * watchdog and the cell cache key.
 */

#include <chrono>
#include <cstdlib>
#include <set>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/ipc_frame.hh"
#include "common/watchdog.hh"
#include "harness/engine.hh"

using namespace cps;
using harness::CellFault;
using harness::CellOutcome;
using harness::CellRunner;
using harness::CellRunnerConfig;
using harness::CellState;
using harness::RunRequest;

namespace
{

// The matrix-level tests below drive runMatrixCells through the
// process-wide env policy; set it before main() so the cached
// CellRunnerConfig::fromEnv sees isolation + a finite deadline. The
// deadline doubles as the hang-detection latency and the budget a
// healthy worker gets, so it must stay far above a 20k-insn cell's
// runtime even on an oversubscribed sanitizer host: 4 s is over 10x
// the slowest healthy isolated 20k-insn cell of any profile on a
// 4-vCPU host (69 ms under ASan+UBSan, 316 ms under TSan).
const bool kEnvReady = [] {
    ::setenv("CPS_ISOLATE", "1", 1);
    ::setenv("CPS_CELL_TIMEOUT_MS", "4000", 1);
    return true;
}();

constexpr u64 kInsns = 20000;

/** Payload bound for the pipe tests' frames (all far smaller). */
constexpr size_t kMaxPayload = 1024;

RunRequest
benchRequest(const char *name = "pegwit",
             CellFault fault = CellFault::None)
{
    Suite &suite = Suite::instance();
    RunRequest req;
    req.bench = &suite.get(name);
    req.cfg = baseline4Issue();
    req.maxInsns = kInsns;
    req.injectFault = fault;
    return req;
}

/** A runner that forks workers, with a deadline tests can wait out. */
CellRunnerConfig
isolatedConfig(long timeout_ms = 20000, unsigned retries = 0)
{
    CellRunnerConfig cfg;
    cfg.isolate = true;
    cfg.timeoutMs = timeout_ms;
    cfg.retries = retries;
    cfg.backoffMs = 1;
    return cfg;
}

void
expectSameOutcome(const RunOutcome &a, const RunOutcome &b)
{
    EXPECT_EQ(a.result.instructions, b.result.instructions);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
    EXPECT_EQ(a.result.programExited, b.result.programExited);
    EXPECT_EQ(a.result.status, b.result.status);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.bufferHits, b.bufferHits);
    EXPECT_EQ(a.missLatencyTotal, b.missLatencyTotal);
    EXPECT_DOUBLE_EQ(a.icacheMissRate, b.icacheMissRate);
    EXPECT_DOUBLE_EQ(a.indexCacheMissRate, b.indexCacheMissRate);
}

// ---------------------------------------------------------- IPC frames

TEST(IpcFrame, FlippedByteFailsCrc)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Flip a payload byte: the header still parses, only the CRC can
    // tell the frame is wrong.
    std::vector<u8> frame = encodeFrame(7, std::vector<u8>(64, 1));
    frame[frame.size() / 2] ^= 0x40;
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ::close(fds[1]);
    IpcFrame out;
    EXPECT_EQ(readFrame(fds[0], out, 1000, kMaxPayload),
              FrameReadStatus::Torn);
    ::close(fds[0]);
}

TEST(IpcFrame, PipeRoundtripAndTimeout)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    std::vector<u8> payload(100, 0x5A);
    ASSERT_TRUE(writeFrame(fds[1], 9, payload));

    IpcFrame frame;
    ASSERT_EQ(readFrame(fds[0], frame, 1000, kMaxPayload),
              FrameReadStatus::Ok);
    EXPECT_EQ(frame.type, 9u);
    EXPECT_EQ(frame.payload, payload);

    // Nothing left in the pipe: a short deadline must expire cleanly.
    EXPECT_EQ(readFrame(fds[0], frame, 50, kMaxPayload),
              FrameReadStatus::Timeout);

    // A deadline beyond poll(2)'s int range must still wait for a late
    // writer: 2^32 + 50 ms is not a 50 ms deadline.
    std::thread late_writer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        writeFrame(fds[1], 9, payload);
    });
    EXPECT_EQ(readFrame(fds[0], frame, (1L << 32) + 50, kMaxPayload),
              FrameReadStatus::Ok);
    late_writer.join();

    ::close(fds[1]);
    EXPECT_EQ(readFrame(fds[0], frame, 50, kMaxPayload),
              FrameReadStatus::Eof);
    ::close(fds[0]);
}

TEST(IpcFrame, WriteToClosedReaderFailsCleanly)
{
    // A worker whose parent timed out writes into a pipe nobody reads:
    // the write must fail, not kill the writer with SIGPIPE.
    ignoreSigpipe();
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ::close(fds[0]);
    EXPECT_FALSE(writeFrame(fds[1], 9, std::vector<u8>(100, 0x5A)));
    ::close(fds[1]);
}

TEST(IpcFrame, WriterDeadMidFrameIsTorn)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::vector<u8> frame = encodeFrame(9, std::vector<u8>(64, 1));
    // Half a frame, then the writer "dies" (fd closes).
    ASSERT_EQ(::write(fds[1], frame.data(), frame.size() / 2),
              static_cast<ssize_t>(frame.size() / 2));
    ::close(fds[1]);
    IpcFrame out;
    EXPECT_EQ(readFrame(fds[0], out, 1000, kMaxPayload),
              FrameReadStatus::Torn);
    ::close(fds[0]);
}

// ----------------------------------------------------- result envelope

TEST(RunOutcomeEnvelope, RoundtripPreservesEveryField)
{
    RunOutcome out;
    out.result.instructions = 123456;
    out.result.cycles = 7890123;
    out.result.programExited = true;
    out.result.status = RunStatus::Stalled;
    out.result.statusDetail = "no retirement for 4 checks";
    out.icacheMissRate = 0.0625;
    out.indexCacheMissRate = 0.125;
    out.icacheMisses = 4242;
    out.bufferHits = 99;
    out.missLatencyTotal = 1000000;

    Result<RunOutcome> back =
        harness::decodeRunOutcomeChecked(harness::encodeRunOutcome(out));
    ASSERT_TRUE(back.ok()) << back.error().describe();
    expectSameOutcome(*back, out);
    EXPECT_EQ(back->result.statusDetail, out.result.statusDetail);
}

TEST(RunOutcomeEnvelope, RejectsBadVersionAndTruncation)
{
    RunOutcome out;
    out.result.instructions = 1;
    std::vector<u8> bytes = harness::encodeRunOutcome(out);

    std::vector<u8> bad_version = bytes;
    bad_version[0] = 99;
    EXPECT_FALSE(harness::decodeRunOutcomeChecked(bad_version).ok());

    std::vector<u8> truncated(bytes.begin(), bytes.end() - 5);
    EXPECT_FALSE(harness::decodeRunOutcomeChecked(truncated).ok());

    std::vector<u8> oversized = bytes;
    oversized.push_back(0);
    EXPECT_FALSE(harness::decodeRunOutcomeChecked(oversized).ok());
}

// --------------------------------------------------- progress watchdog

TEST(Watchdog, NeverTripsWhileProgressing)
{
    ProgressWatchdog dog(10, 2);
    u64 progress = 0;
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(dog.tick(++progress));
}

TEST(Watchdog, TripsAfterConsecutiveStalledChecks)
{
    ProgressWatchdog dog(10, 3);
    ASSERT_FALSE(dog.tick(5)); // iteration 1: below interval
    bool tripped = false;
    // The first check records the counter; the next 3 stalled checks
    // (10 iterations each) must trip it.
    for (int i = 0; i < 10 * 4; ++i)
        tripped = dog.tick(5) || tripped;
    EXPECT_TRUE(tripped);
    EXPECT_EQ(dog.stalledChecks(), 3u);
}

TEST(Watchdog, ProgressResetsTheStallCount)
{
    ProgressWatchdog dog(1, 3); // every tick is a check
    EXPECT_FALSE(dog.tick(1));
    EXPECT_FALSE(dog.tick(1)); // stalled check 1
    EXPECT_FALSE(dog.tick(1)); // stalled check 2
    EXPECT_FALSE(dog.tick(2)); // progress: count resets
    EXPECT_FALSE(dog.tick(2));
    EXPECT_FALSE(dog.tick(2));
    EXPECT_TRUE(dog.tick(2)); // stalled check 3
}

TEST(Watchdog, ZeroLimitDisables)
{
    ProgressWatchdog dog(1, 0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(dog.tick(0));
}

TEST(Watchdog, CounterWraparoundRegistersAsProgress)
{
    // A progress counter crossing the u64 wrap (…, ~0-1, ~0, 0, 1, …)
    // changes on every check; the watchdog must see progress, not a
    // phantom stall, anywhere along the way.
    ProgressWatchdog dog(1, 1); // hair trigger: one stalled check trips
    u64 p = ~u64{0} - 2;
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(dog.tick(p + static_cast<u64>(i)))
            << "tripped at step " << i;
    EXPECT_EQ(dog.stalledChecks(), 0u);
}

TEST(Watchdog, EveryStuckValueTripsAtTheSameCheckCount)
{
    // ~0 was once the "no previous reading" sentinel; a counter stuck
    // there must trip after exactly first-check + stall_limit checks
    // like any other stuck value, not one check early.
    for (u64 stuck : {u64{0}, u64{5}, ~u64{0}}) {
        ProgressWatchdog dog(1, 2);
        EXPECT_FALSE(dog.tick(stuck)); // first check: progress
        EXPECT_FALSE(dog.tick(stuck)); // stalled check 1
        EXPECT_TRUE(dog.tick(stuck))   // stalled check 2: trips
            << "stuck value " << stuck;
    }
}

// ------------------------------------------------------------ keys

TEST(CellKey, SensitiveToEveryRunParameter)
{
    RunRequest base = benchRequest();
    const std::string key = harness::cellKey(base);

    // One edit per machine-config field the key encodes. Each alone
    // must change the key, and no two edits may give the same key: a
    // field the key drops would let CPS_RESUME=1 serve a stale cell.
    struct Edit
    {
        const char *field;
        void (*apply)(MachineConfig &);
    };
#define CPS_EDIT(stmt) Edit{#stmt, [](MachineConfig &c) { stmt; }}
    const Edit kEdits[] = {
        CPS_EDIT(c.name += "'"),
        CPS_EDIT(c.pipeline.inOrder = !c.pipeline.inOrder),
        CPS_EDIT(c.pipeline.width += 1),
        CPS_EDIT(c.pipeline.fetchQueue += 1),
        CPS_EDIT(c.pipeline.ruuSize += 1),
        CPS_EDIT(c.pipeline.lsqSize += 1),
        CPS_EDIT(c.pipeline.numAlu += 1),
        CPS_EDIT(c.pipeline.numMult += 1),
        CPS_EDIT(c.pipeline.numMemPorts += 1),
        CPS_EDIT(c.pipeline.numFpAlu += 1),
        CPS_EDIT(c.pipeline.numFpMult += 1),
        CPS_EDIT(c.pipeline.predictor = PredictorKind::Hybrid1k),
        CPS_EDIT(c.pipeline.mispredictExtra += 1),
        CPS_EDIT(c.pipeline.watchdogInterval += 1),
        CPS_EDIT(c.pipeline.watchdogStallLimit += 1),
        CPS_EDIT(c.icache.sizeBytes *= 2),
        CPS_EDIT(c.icache.lineBytes *= 2),
        CPS_EDIT(c.icache.assoc *= 2),
        CPS_EDIT(c.icache.policy = ReplPolicy::Fifo),
        CPS_EDIT(c.dcache.sizeBytes *= 2),
        CPS_EDIT(c.dcache.lineBytes *= 2),
        CPS_EDIT(c.dcache.assoc *= 2),
        CPS_EDIT(c.dcache.policy = ReplPolicy::Fifo),
        CPS_EDIT(c.mem.busWidthBits *= 2),
        CPS_EDIT(c.mem.firstAccess += 1),
        CPS_EDIT(c.mem.beatRate += 1),
        CPS_EDIT(c.codeModel = CodeModel::CodePack),
        CPS_EDIT(c.decomp.indexCacheLines += 1),
        CPS_EDIT(c.decomp.indexesPerLine += 1),
        CPS_EDIT(c.decomp.perfectIndexCache = true),
        CPS_EDIT(c.decomp.burstIndexFill = true),
        CPS_EDIT(c.decomp.decodeRate += 1),
        CPS_EDIT(c.decomp.protect = ProtectKind::Crc8),
        CPS_EDIT(c.decomp.eccCheckCycles += 1),
        CPS_EDIT(c.decomp.eccCorrectCycles += 1),
        CPS_EDIT(c.software.trapOverhead += 1),
        CPS_EDIT(c.software.cyclesPerInsn += 1),
        CPS_EDIT(c.software.copyCyclesPerInsn += 1),
        CPS_EDIT(c.software.returnOverhead += 1),
    };
#undef CPS_EDIT
    std::set<std::string> seen{key};
    for (const Edit &e : kEdits) {
        RunRequest req = base;
        e.apply(req.cfg);
        const std::string k = harness::cellKey(req);
        EXPECT_NE(k, key) << e.field;
        EXPECT_TRUE(seen.insert(k).second) << e.field;
    }

    RunRequest insns = base;
    insns.maxInsns += 1;
    EXPECT_NE(harness::cellKey(insns), key);

    RunRequest bench = base;
    bench.bench = &Suite::instance().get("go");
    EXPECT_NE(harness::cellKey(bench), key);

    // The injected fault is test machinery, not a simulation input.
    RunRequest faulted = base;
    faulted.injectFault = CellFault::Crash;
    EXPECT_EQ(harness::cellKey(faulted), key);
}

// ------------------------------------------------- isolated execution

TEST(CellRunner, IsolatedResultMatchesInlineExactly)
{
    RunRequest req = benchRequest();
    CellOutcome inline_out = CellRunner(CellRunnerConfig{}).run(req);
    CellOutcome iso_out = CellRunner(isolatedConfig()).run(req);
    ASSERT_TRUE(inline_out.status.ok());
    ASSERT_TRUE(iso_out.status.ok())
        << iso_out.status.describe();
    EXPECT_EQ(iso_out.status.attempts, 1u);
    expectSameOutcome(iso_out.outcome, inline_out.outcome);
}

TEST(CellRunner, SigkilledWorkerIsReportedAsCrash)
{
    // kill -9 mid-cell: the canonical "OOM killer took the worker".
    RunRequest req = benchRequest("pegwit", CellFault::KillSelf);
    CellOutcome out = CellRunner(isolatedConfig()).run(req);
    EXPECT_EQ(out.status.state, CellState::Crashed);
    EXPECT_EQ(out.status.termSignal, SIGKILL);
    EXPECT_EQ(harness::failLabel(out.status), "FAILED(sig=9)");
}

TEST(CellRunner, AbortingWorkerIsReportedAsCrash)
{
    RunRequest req = benchRequest("pegwit", CellFault::Crash);
    CellOutcome out = CellRunner(isolatedConfig()).run(req);
    EXPECT_EQ(out.status.state, CellState::Crashed);
    EXPECT_EQ(out.status.termSignal, SIGABRT);
}

TEST(CellRunner, HangingWorkerTripsTheDeadline)
{
    RunRequest req = benchRequest("pegwit", CellFault::Hang);
    CellOutcome out = CellRunner(isolatedConfig(300)).run(req);
    EXPECT_EQ(out.status.state, CellState::Timeout);
    EXPECT_EQ(harness::failLabel(out.status), "FAILED(timeout)");
}

TEST(CellRunner, SlowWorkerInsideTheDeadlineIsNotATimeout)
{
    // A worker that delivers late-but-in-time must produce a result
    // byte-identical to a prompt one: the deadline is a cliff at
    // CPS_CELL_TIMEOUT_MS, not a gradual penalty.
    CellOutcome baseline =
        CellRunner(CellRunnerConfig{}).run(benchRequest());

    RunRequest req = benchRequest("pegwit", CellFault::SlowResult);
    req.faultDelayMs = 100;
    CellOutcome out = CellRunner(isolatedConfig(20000)).run(req);
    ASSERT_TRUE(out.status.ok()) << out.status.describe();
    EXPECT_EQ(out.status.attempts, 1u);
    expectSameOutcome(out.outcome, baseline.outcome);
}

TEST(CellRunner, DeadlineTripsAtTheConfiguredBoundNotTheWorkerPace)
{
    // The worker sleeps far past the deadline; the runner must kill it
    // at the configured bound instead of waiting out the sleep, and
    // the diagnosis must name the exact CPS_CELL_TIMEOUT_MS value.
    constexpr long kTimeoutMs = 300;
    RunRequest req = benchRequest("pegwit", CellFault::SlowResult);
    req.faultDelayMs = 10000;
    auto start = std::chrono::steady_clock::now();
    CellOutcome out = CellRunner(isolatedConfig(kTimeoutMs)).run(req);
    long elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(out.status.state, CellState::Timeout);
    EXPECT_NE(out.status.detail.find("within 300 ms"),
              std::string::npos)
        << out.status.detail;
    // Generous upper bound (slow CI hosts) that still proves the
    // runner gave up at ~kTimeoutMs rather than at faultDelayMs.
    EXPECT_LT(elapsed_ms, 5000);
}

TEST(CellRunner, GarbledResultFrameIsAProtocolError)
{
    RunRequest req = benchRequest("pegwit", CellFault::Garble);
    CellOutcome out = CellRunner(isolatedConfig()).run(req);
    EXPECT_EQ(out.status.state, CellState::ProtocolError);
}

TEST(CellRunner, NonzeroExitIsReportedWithItsCode)
{
    RunRequest req = benchRequest("pegwit", CellFault::ExitNonzero);
    CellOutcome out = CellRunner(isolatedConfig()).run(req);
    EXPECT_EQ(out.status.state, CellState::ExitedError);
    EXPECT_EQ(out.status.exitCode, 3);
    EXPECT_EQ(harness::failLabel(out.status), "FAILED(exit=3)");
}

TEST(CellRunner, TransientCrashRecoversOnRetry)
{
    RunRequest healthy = benchRequest();
    CellOutcome baseline = CellRunner(CellRunnerConfig{}).run(healthy);
    ASSERT_TRUE(baseline.status.ok());

    RunRequest req = benchRequest("pegwit", CellFault::CrashOnce);
    CellOutcome out =
        CellRunner(isolatedConfig(20000, /*retries=*/1)).run(req);
    ASSERT_TRUE(out.status.ok()) << out.status.describe();
    EXPECT_EQ(out.status.attempts, 2u);
    expectSameOutcome(out.outcome, baseline.outcome);
}

TEST(CellRunner, ExhaustedRetriesKeepTheFinalFailure)
{
    RunRequest req = benchRequest("pegwit", CellFault::Crash);
    CellOutcome out =
        CellRunner(isolatedConfig(20000, /*retries=*/1)).run(req);
    EXPECT_EQ(out.status.state, CellState::Crashed);
    EXPECT_EQ(out.status.attempts, 2u);

    // Retries past the 32nd attempt: the backoff must stay defined
    // (a zero base keeps the 41 attempts fast).
    CellRunnerConfig many = isolatedConfig(20000, /*retries=*/40);
    many.backoffMs = 0;
    out = CellRunner(many).run(
        benchRequest("pegwit", CellFault::ExitNonzero));
    EXPECT_EQ(out.status.state, CellState::ExitedError);
    EXPECT_EQ(out.status.attempts, 41u);
}

// --------------------------------------- matrix-level fault containment

TEST(MatrixResilience, FaultyCellsDegradeToPlaceholdersOthersSurvive)
{
    ASSERT_TRUE(kEnvReady); // CPS_ISOLATE=1 et al. for fromEnv()
    Suite &suite = Suite::instance();
    suite.pregenerate();

    // A healthy baseline for the cells the faults must not disturb.
    harness::Matrix healthy;
    healthy.add(benchRequest("pegwit"));
    healthy.add(benchRequest("go"));
    healthy.run(2);
    ASSERT_TRUE(healthy.cell(0).status.ok());
    ASSERT_TRUE(healthy.cell(1).status.ok());

    // The acceptance matrix: a crashing cell and a hanging cell
    // surrounded by healthy ones, run in parallel under isolation.
    harness::Matrix m;
    m.add(benchRequest("pegwit"));
    m.add(benchRequest("pegwit", CellFault::Crash));
    m.add(benchRequest("go"));
    m.add(benchRequest("go", CellFault::Hang));
    m.run(4);

    EXPECT_TRUE(m.cell(0).status.ok());
    EXPECT_EQ(m.cell(1).status.state, CellState::Crashed);
    EXPECT_TRUE(m.cell(2).status.ok());
    EXPECT_EQ(m.cell(3).status.state, CellState::Timeout);

    // Retried once (the default) before giving up.
    EXPECT_EQ(m.cell(1).status.attempts, 2u);
    EXPECT_EQ(m.cell(3).status.attempts, 2u);

    // Healthy cells are bit-identical to the fault-free matrix.
    expectSameOutcome(m.cell(0).outcome, healthy.cell(0).outcome);
    expectSameOutcome(m.cell(2).outcome, healthy.cell(1).outcome);

    // Degraded-table rendering and the failure exit summary.
    auto fmt = [](const RunOutcome &o) {
        return std::to_string(o.result.cycles);
    };
    EXPECT_EQ(m.fmtNext(fmt),
              std::to_string(m.cell(0).outcome.result.cycles));
    EXPECT_EQ(m.fmtNext(fmt), "FAILED(sig=6)");
    EXPECT_EQ(m.fmtNext(fmt),
              std::to_string(m.cell(2).outcome.result.cycles));
    EXPECT_EQ(m.fmtNext(fmt), "FAILED(timeout)");
    EXPECT_EQ(m.failedCount(), 2u);
    testing::internal::CaptureStderr();
    m.reportFailures();
    const std::string report = testing::internal::GetCapturedStderr();
    EXPECT_NE(report.find("2 of 4 matrix cells FAILED"), std::string::npos)
        << report;

    // fmtCells degrades pairwise metrics the same way.
    EXPECT_EQ(harness::fmtCells(m.cell(0), m.cell(1),
                                [](const RunOutcome &,
                                   const RunOutcome &) {
                                    return std::string("1.0");
                                }),
              "FAILED(sig=6)");
}

} // namespace
