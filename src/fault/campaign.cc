#include "campaign.hh"

#include "codepack/decompressor.hh"
#include "codepack/imagefile.hh"

namespace cps
{
namespace fault
{

namespace
{

Outcome
classifyAgainst(const codepack::CompressedImage &img,
                const std::vector<u32> &reference,
                const std::vector<u8> &corrupted, bool verify_crc)
{
    codepack::ImageLoadOptions opts;
    opts.verifyCrc = verify_crc;
    Result<codepack::CompressedImage> loaded =
        codepack::decodeImageChecked(corrupted, opts);
    if (!loaded)
        return Outcome::DetectedAtLoad;

    codepack::Decompressor decomp(*loaded);
    Result<std::vector<u32>> words = decomp.tryDecompressAll();
    if (!words)
        return Outcome::RejectedInDecode;

    // Decoded cleanly: is it the same program the pristine image holds?
    if (loaded->textBase != img.textBase ||
        loaded->origTextBytes != img.origTextBytes ||
        loaded->paddedInsns != img.paddedInsns)
        return Outcome::SilentlyWrong;
    if (*words != reference)
        return Outcome::SilentlyWrong;
    return Outcome::SilentlyCorrect;
}

} // namespace

Outcome
classifyCorruption(const codepack::CompressedImage &img,
                   const std::vector<u8> &corrupted, bool verify_crc)
{
    std::vector<u32> reference =
        codepack::Decompressor(img).decompressAll();
    return classifyAgainst(img, reference, corrupted, verify_crc);
}

CampaignResult
runCampaign(const codepack::CompressedImage &img,
            const CampaignConfig &cfg)
{
    std::vector<u8> pristine = codepack::encodeImage(img);
    std::vector<u32> reference =
        codepack::Decompressor(img).decompressAll();

    CampaignResult res;
    for (unsigned k = 0; k < kNumFaultKinds; ++k) {
        FaultKind kind = kAllFaultKinds[k];
        for (unsigned t = 0; t < cfg.trials; ++t) {
            std::vector<u8> bytes = pristine;
            FaultInjector injector(cfg.seed + t);
            FaultRecord rec = injector.inject(bytes, kind);
            Outcome o =
                classifyAgainst(img, reference, bytes, cfg.verifyCrc);
            if (o == Outcome::SilentlyWrong &&
                res.silentlyWrong() == 0)
                res.firstSilentWrong = rec;
            ++res.byOutcome[static_cast<unsigned>(o)];
            ++res.byKindOutcome[k][static_cast<unsigned>(o)];
            ++res.trials;
        }
    }
    return res;
}

} // namespace fault
} // namespace cps
