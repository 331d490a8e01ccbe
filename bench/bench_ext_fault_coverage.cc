/**
 * @file
 * Extension experiment: fault coverage of the hardened decode path.
 *
 * Embedded flash is subject to bit errors and interrupted programming;
 * a production decompressor must turn any such corruption into a
 * diagnosable rejection, never a crash or a silent wrong decode. This
 * bench sweeps seeded corruptions (bit flips, byte rewrites,
 * truncations, index-entry scribbles) over every benchmark profile's
 * compressed image and reports how each one was handled, with section
 * CRCs verified at load and again with CRCs disabled (isolating the
 * decode path's own structural defences).
 *
 * Override the per-kind trial count with CPS_FAULT_TRIALS (1 to 10^6,
 * default 200, i.e. 1000 corruptions per profile per CRC mode).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "fault/campaign.hh"
#include "harness/suite.hh"

using namespace cps;

namespace
{

void
addCampaignRows(TextTable &t, const std::string &name,
                const fault::CampaignResult &res, const char *mode)
{
    t.addRow({name, mode, std::to_string(res.trials),
              std::to_string(res.count(fault::Outcome::DetectedAtLoad)),
              std::to_string(
                  res.count(fault::Outcome::RejectedInDecode)),
              std::to_string(res.count(fault::Outcome::SilentlyCorrect)),
              std::to_string(res.silentlyWrong())});
}

} // namespace

int
main()
{
    Suite &suite = Suite::instance();
    suite.pregenerate();
    const std::vector<std::string> &names = suite.names();
    const unsigned trials = static_cast<unsigned>(
        envUnsigned("CPS_FAULT_TRIALS", 200, 1, 1000000));

    TextTable t;
    t.setTitle(strfmt("Extension: fault coverage (%u corruptions per "
                      "fault kind, %u kinds)",
                      trials, fault::kNumFaultKinds));
    t.addHeader({"Bench", "CRC", "Corruptions", "detected@load",
                 "rejected", "benign", "silently-wrong"});

    // Each profile runs two campaigns (CRC on / CRC off); the campaigns
    // are seeded and touch only private copies of the encoded image, so
    // they fan out across the pool — one task per (profile, CRC mode).
    std::vector<fault::CampaignResult> withCrc(names.size());
    std::vector<fault::CampaignResult> noCrc(names.size());
    {
        ThreadPool pool;
        pool.parallelFor(names.size() * 2, [&](size_t k) {
            size_t i = k / 2;
            const BenchProgram &bench = suite.get(names[i]);
            fault::CampaignConfig cfg;
            cfg.trials = trials;
            if (k % 2 == 0) {
                withCrc[i] = fault::runCampaign(bench.image, cfg);
            } else {
                cfg.verifyCrc = false;
                noCrc[i] = fault::runCampaign(bench.image, cfg);
            }
        });
    }

    // The counts behind the Reading line. Its claim for CRCs on holds
    // only if every profile's corruptions were all classified and none
    // decoded silently wrong.
    using fault::FaultKind;
    using fault::Outcome;
    auto rejected = [](const fault::CampaignResult &r, FaultKind k) {
        return r.count(k, Outcome::DetectedAtLoad) +
               r.count(k, Outcome::RejectedInDecode);
    };
    unsigned truncs_rejected = 0;
    unsigned scribbles_rejected = 0;
    unsigned silent_no_crc = 0;
    unsigned silent_flips = 0;
    std::string breaks;
    for (size_t i = 0; i < names.size(); ++i) {
        const fault::CampaignResult &with_crc = withCrc[i];
        const fault::CampaignResult &no_crc = noCrc[i];
        addCampaignRows(t, names[i], with_crc, "on");
        addCampaignRows(t, "", no_crc, "off");

        unsigned classified = 0;
        for (unsigned o = 0; o < fault::kNumOutcomes; ++o)
            classified += with_crc.byOutcome[o];
        if (with_crc.silentlyWrong() > 0 || classified != with_crc.trials)
            breaks += strfmt("%s%s with CRC on (%u silently wrong, %u of "
                             "%u classified)",
                             breaks.empty() ? "" : "; ", names[i].c_str(),
                             with_crc.silentlyWrong(), classified,
                             with_crc.trials);

        truncs_rejected += rejected(no_crc, FaultKind::Truncate);
        scribbles_rejected += rejected(no_crc, FaultKind::IndexCorrupt);
        silent_no_crc += no_crc.silentlyWrong();
        for (FaultKind k : {FaultKind::BitFlip, FaultKind::MultiBitFlip,
                            FaultKind::ByteCorrupt})
            silent_flips += no_crc.count(k, Outcome::SilentlyWrong);
    }
    t.print();

    const unsigned per_kind = trials * static_cast<unsigned>(names.size());
    if (breaks.empty())
        std::printf("\nReading: with section CRCs every corruption is "
                    "caught before it can matter (0 silently wrong). "
                    "Without them the structural checks still reject %u "
                    "of %u truncations and %u of %u index scribbles, and "
                    "%u of the %u silently wrong decodes come from bit "
                    "flips and byte rewrites — the gap the CRC closes. No "
                    "corruption crashed the decoder.\n",
                    truncs_rejected, per_kind, scribbles_rejected,
                    per_kind, silent_flips, silent_no_crc);
    else
        std::printf("\nReading: section CRCs do NOT catch every "
                    "corruption here: %s.\n",
                    breaks.c_str());
    return breaks.empty() ? 0 : 1;
}
