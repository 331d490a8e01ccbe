/**
 * @file
 * cpfuzz — fault-injection fuzzer for the compressed-image decode path.
 *
 * Compresses a program (built-in benchmark, assembly source, or saved
 * object), then corrupts the encoded image with seeded faults and
 * checks that every corruption is either detected at load (CRC/bounds)
 * or rejected during decode with a structured error — never a crash.
 *
 *   cpfuzz [@bench|input.s|input.cpo] [options]
 *     --trials N      corruptions per fault kind   (default 200)
 *     --seed S        base seed                    (default 0x600d5eed)
 *     --no-crc        skip CRC verification at load (stress the decode
 *                     path's own structural defences)
 *     --runtime-flips fuzz the *fetch* path instead of the loader:
 *                     seeded in-memory upsets (stream / index / burst)
 *                     against a running image, routed through the
 *                     per-block protection and detect-and-refetch
 *                     recovery of SoftErrorDomain
 *     --ecc KIND      protection for --runtime-flips: off, crc8,
 *                     crc16, secded               (default secded)
 *
 * Exit status:
 *   0  clean — every corruption was detected, rejected, corrected,
 *      recovered, or benign
 *   1  fatal — bad usage or unloadable input (cps_fatal)
 *   2  corruption escaped — at least one silently-wrong decode while
 *      the relevant defence (load CRC, or runtime protection) was on;
 *      the defect this fuzzer exists to surface
 *   3  detected-unrecoverable — --runtime-flips only: no silent
 *      escapes, but some upsets exhausted the refetch budget and were
 *      refused loudly (memory and backing store both corrupted)
 *   death by signal — the decode path itself crashed; the wait status
 *      carries the signal
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "asmkit/assembler.hh"
#include "asmkit/objfile.hh"
#include "codepack/compressor.hh"
#include "common/byteio.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "fault/campaign.hh"
#include "fault/soft_campaign.hh"
#include "progen/progen.hh"

using namespace cps;

namespace
{

/** Exit codes, kept distinct so wait-status assertions are unambiguous
 *  (1 is cps_fatal's code; signal deaths have no exit code at all). */
constexpr int kExitClean = 0;
constexpr int kExitCorruptionEscaped = 2;
constexpr int kExitDetectedUnrecoverable = 3;

/** Seeded runtime-upset campaign against the fetch path. */
int
runRuntimeFlips(const codepack::CompressedImage &img, ProtectKind protect,
                unsigned trials, u64 seed)
{
    fault::SoftCampaignConfig cfg;
    cfg.protect = protect;
    cfg.trials = trials;
    cfg.seed = seed;
    std::printf("cpfuzz: runtime flips, protection %s, %u trials x %u "
                "upset kinds\n",
                protectKindName(protect), cfg.trials,
                fault::kNumMemFaultKinds);
    fault::SoftCampaignResult res = fault::runSoftCampaign(img, cfg);

    TextTable t;
    t.setTitle(strfmt("Runtime-upset coverage (%u upsets)", res.trials));
    t.addHeader({"Upset kind", "clean", "corrected", "refetched",
                 "detected", "silently-wrong"});
    for (unsigned k = 0; k < fault::kNumMemFaultKinds; ++k) {
        fault::MemFaultKind kind = fault::kAllMemFaultKinds[k];
        auto cell = [&](fault::SoftOutcome o) {
            return std::to_string(
                res.byKindOutcome[k][static_cast<unsigned>(o)]);
        };
        t.addRow({memFaultKindName(kind),
                  cell(fault::SoftOutcome::Clean),
                  cell(fault::SoftOutcome::Corrected),
                  cell(fault::SoftOutcome::Refetched),
                  cell(fault::SoftOutcome::DetectedUnrecoverable),
                  cell(fault::SoftOutcome::SilentWrong)});
    }
    t.addRule();
    t.addRow({"total", std::to_string(res.count(fault::SoftOutcome::Clean)),
              std::to_string(res.count(fault::SoftOutcome::Corrected)),
              std::to_string(res.count(fault::SoftOutcome::Refetched)),
              std::to_string(
                  res.count(fault::SoftOutcome::DetectedUnrecoverable)),
              std::to_string(res.silentWrong())});
    t.print();

    if (res.silentWrong() > 0) {
        std::printf("\nfirst silently-wrong upset: %s\n",
                    res.firstSilentWrong.describe().c_str());
        if (protect != ProtectKind::None)
            return kExitCorruptionEscaped;
        std::printf("(protection was off; silent corruption of "
                    "unprotected memory is expected there)\n");
    }
    if (protect != ProtectKind::None &&
        res.count(fault::SoftOutcome::DetectedUnrecoverable) > 0)
        return kExitDetectedUnrecoverable;
    return kExitClean;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input = "@go";
    fault::CampaignConfig cfg;
    bool runtime_flips = false;
    ProtectKind protect = ProtectKind::SecDed;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                cps_fatal("option '%s' needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--trials") {
            // Zero trials would print an all-zero table and exit 0: a
            // vacuous pass of the campaign gate.
            cfg.trials = static_cast<unsigned>(
                parseUnsignedOption("--trials", next(), 1, UINT_MAX));
        } else if (arg == "--seed") {
            cfg.seed = parseUnsignedOption("--seed", next(), 0, UINT64_MAX,
                                           /*base=*/0);
        } else if (arg == "--no-crc") {
            cfg.verifyCrc = false;
        } else if (arg == "--runtime-flips") {
            runtime_flips = true;
        } else if (arg == "--ecc") {
            std::string kind = next();
            if (!parseProtectKind(kind.c_str(), protect))
                cps_fatal("unknown protection kind '%s' (off, crc8, "
                          "crc16, secded)",
                          kind.c_str());
        } else if (!arg.empty() && arg[0] == '-') {
            cps_fatal("unknown option '%s'", arg.c_str());
        } else {
            input = arg;
        }
    }

    Program prog;
    if (!input.empty() && input[0] == '@') {
        prog = generateProgram(findProfile(input.substr(1)));
    } else if (input.size() > 4 &&
               input.compare(input.size() - 4, 4, ".cpo") == 0) {
        auto loaded = loadProgram(input);
        if (!loaded)
            cps_fatal("cannot load program '%s'", input.c_str());
        prog = std::move(*loaded);
    } else {
        auto bytes = readFileBytes(input);
        if (!bytes)
            cps_fatal("cannot read '%s'", input.c_str());
        prog = assembleOrDie(std::string(bytes->begin(), bytes->end()));
    }

    codepack::CompressedImage img = codepack::compress(prog);
    if (runtime_flips)
        return runRuntimeFlips(img, protect, cfg.trials, cfg.seed);
    std::printf("cpfuzz: %s, %u bytes compressed, %u trials x %u fault "
                "kinds, CRC %s\n",
                input.c_str(), static_cast<unsigned>(img.bytes.size()),
                cfg.trials, fault::kNumFaultKinds,
                cfg.verifyCrc ? "on" : "off");

    fault::CampaignResult res = fault::runCampaign(img, cfg);

    TextTable t;
    t.setTitle(strfmt("Fault coverage (%u corruptions)", res.trials));
    t.addHeader({"Fault kind", "detected@load", "rejected", "benign",
                 "silently-wrong"});
    for (unsigned k = 0; k < fault::kNumFaultKinds; ++k) {
        fault::FaultKind kind = fault::kAllFaultKinds[k];
        t.addRow({faultKindName(kind),
                  std::to_string(
                      res.count(kind, fault::Outcome::DetectedAtLoad)),
                  std::to_string(
                      res.count(kind, fault::Outcome::RejectedInDecode)),
                  std::to_string(
                      res.count(kind, fault::Outcome::SilentlyCorrect)),
                  std::to_string(
                      res.count(kind, fault::Outcome::SilentlyWrong))});
    }
    t.addRule();
    t.addRow({"total",
              std::to_string(res.count(fault::Outcome::DetectedAtLoad)),
              std::to_string(
                  res.count(fault::Outcome::RejectedInDecode)),
              std::to_string(res.count(fault::Outcome::SilentlyCorrect)),
              std::to_string(res.silentlyWrong())});
    t.print();

    if (res.silentlyWrong() > 0) {
        std::printf("\nfirst silently-wrong fault: %s\n",
                    res.firstSilentWrong.describe().c_str());
        if (cfg.verifyCrc) {
            // CRCs on: silent acceptance is a real failure, and its
            // exit code must stay distinct from cps_fatal's 1.
            return kExitCorruptionEscaped;
        }
        std::printf("(CRC verification was off; silent corruption of "
                    "the stream is expected there)\n");
    }
    return kExitClean;
}
