/**
 * @file
 * Fault-coverage campaigns: corrupt an encoded image N seeded times and
 * classify how each corruption is handled by the hardened decode path.
 *
 * Outcomes, in decreasing order of comfort:
 *   DetectedAtLoad   the image loader rejected the bytes (magic, CRC,
 *                    size validation) — the fault never reached decode
 *   RejectedInDecode the loader accepted the bytes but the checked
 *                    decompressor returned a structured error
 *   SilentlyCorrect  the image decoded to exactly the original program
 *                    (the fault landed in dead bytes, or was undone)
 *   SilentlyWrong    the image decoded cleanly to DIFFERENT words or
 *                    header fields — the failure mode hardening exists
 *                    to surface; with CRCs on it should be zero
 *
 * A crash/abort anywhere in the pipeline is a campaign failure by
 * definition; the campaign never aborts on any corruption.
 */

#ifndef CPS_FAULT_CAMPAIGN_HH
#define CPS_FAULT_CAMPAIGN_HH

#include "codepack/compressor.hh"
#include "injector.hh"

namespace cps
{
namespace fault
{

/** How one corrupted image was handled. */
enum class Outcome
{
    DetectedAtLoad,
    RejectedInDecode,
    SilentlyCorrect,
    SilentlyWrong,
};

constexpr unsigned kNumOutcomes = 4;

/** Campaign parameters. */
struct CampaignConfig
{
    unsigned trials = 200; ///< corruptions per fault kind sweep
    u64 seed = 0x600d5eed; ///< base seed; trial t uses seed + t
    bool verifyCrc = true; ///< check section CRCs at load
};

/** Aggregated campaign counts. */
struct CampaignResult
{
    unsigned trials = 0;
    unsigned byOutcome[kNumOutcomes] = {};
    unsigned byKindOutcome[kNumFaultKinds][kNumOutcomes] = {};
    /** First silently-wrong fault, for replay (valid when any). */
    FaultRecord firstSilentWrong;

    unsigned
    count(Outcome o) const
    {
        return byOutcome[static_cast<unsigned>(o)];
    }

    unsigned
    count(FaultKind k, Outcome o) const
    {
        return byKindOutcome[static_cast<unsigned>(k)]
                            [static_cast<unsigned>(o)];
    }

    unsigned silentlyWrong() const
    {
        return count(Outcome::SilentlyWrong);
    }
};

/**
 * Classifies one corrupted encoded image against the pristine @p img.
 * Never aborts: every path through load and decode is checked.
 */
Outcome classifyCorruption(const codepack::CompressedImage &img,
                           const std::vector<u8> &corrupted,
                           bool verify_crc);

/**
 * Runs cfg.trials corruptions of every fault kind against @p img
 * (cfg.trials * kNumFaultKinds corrupted images in total).
 */
CampaignResult runCampaign(const codepack::CompressedImage &img,
                           const CampaignConfig &cfg);

} // namespace fault
} // namespace cps

#endif // CPS_FAULT_CAMPAIGN_HH
