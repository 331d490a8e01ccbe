/**
 * @file
 * Extension experiment: host-side simulator performance. Unlike every
 * other bench, the numbers here are about the *simulator*, not the
 * simulated machine — pregeneration against a cold vs. warm artifact
 * cache, CodePack compression serial vs. parallel, how fast the
 * trusted decode kernel chews through compressed blocks compared to
 * the checked bit-serial reference, how many instructions per second
 * the models simulate (driving the functional core live vs. replaying
 * the recorded trace), and the wall-clock of a full experiment-matrix
 * regeneration serial vs. parallel and live vs. replay (the
 * `runMatrix` engine, worker count from CPS_THREADS). The host block
 * fetcher is timed by bench_micro_components (BM_BlockFetcherFetch).
 *
 * Besides the human-readable table the bench writes BENCH_simperf.json
 * into the working directory so later changes can track the host-perf
 * trajectory. Wall-clock numbers are machine-dependent by nature; the
 * JSON records the worker count so readers can normalize.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "codepack/decompressor.hh"
#include "common/artifact_cache.hh"
#include "common/table.hh"
#include "common/threadpool.hh"
#include "harness/engine.hh"

using namespace cps;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * BENCH_simperf.json schema version, bumped whenever a key is added,
 * removed, or changes meaning. tests/check_simperf_schema.py pins the
 * emitted document against this number and its required keys.
 * Schema 8: bench_ext_soft_errors may merge an optional "softerr"
 * section (coverage, silent-rate, recovery-latency, and storage-cost
 * aggregates of the soft-error campaigns).
 * Schema 9: the "chunked" section and hostpf.direct_blocks_per_sec are
 * gone; hostpf.warm_refill_speedup is the fetcher against the
 * prefetch-off LRU.
 * Schema 10: the "hostpf" section, the scalar-compress keys and the
 * per-kernel and batched decode keys are gone; "decode" holds the
 * checked reference, the one trusted kernel and their speedup.
 */
constexpr int kSchema = 10;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Blocks decoded per second through @p decode: best of three ~0.2 s
 * timing windows (the best window is the least disturbed by scheduler
 * noise — the usual convention for wall-clock microbenchmarks).
 */
template <typename Fn>
double
blocksPerSecond(u32 num_blocks, Fn &&decode)
{
    // Warm up (and fault in the LUT / stream pages) first.
    for (u32 b = 0; b < num_blocks; ++b)
        decode(b);
    double best = 0;
    for (int rep = 0; rep < 5; ++rep) {
        u64 decoded = 0;
        auto start = Clock::now();
        double elapsed = 0;
        do {
            for (u32 b = 0; b < num_blocks; ++b)
                decode(b);
            decoded += num_blocks;
            elapsed = secondsSince(start);
        } while (elapsed < 0.2);
        best = std::max(best, static_cast<double>(decoded) / elapsed);
    }
    return best;
}

/**
 * The full-suite speedup matrix used for the wall-clock comparison:
 * both pipeline models x all four code models, the shape of the
 * paper's multi-configuration tables.
 */
std::vector<harness::RunRequest>
matrixRequests(Suite &suite, u64 insns)
{
    std::vector<harness::RunRequest> reqs;
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        for (const MachineConfig &base :
             {baseline1Issue(), baseline4Issue()}) {
            for (CodeModel model :
                 {CodeModel::Native, CodeModel::CodePack,
                  CodeModel::CodePackOptimized,
                  CodeModel::CodePackSoftware}) {
                reqs.push_back(
                    {&bench, base.withCodeModel(model), insns});
            }
        }
    }
    return reqs;
}

std::string
grouped(double v)
{
    return TextTable::grouped(static_cast<u64>(v));
}

} // namespace

int
main()
{
    u64 insns = Suite::runInsns();
    Suite &suite = Suite::instance();

    // --- 0. Pregeneration wall-clock: cold vs warm artifact cache -----
    // A private scratch cache (not the process-wide one) so "cold" is
    // genuinely cold and the measurement does not disturb — or get
    // helped by — any .cps-cache a previous run left behind.
    const std::string scratch_cache = "simperf_pregen_cache";
    std::filesystem::remove_all(scratch_cache);
    ArtifactCache pregen_cache(scratch_cache, true);
    auto timePregen = [&] {
        auto start = Clock::now();
        for (const std::string &name : suite.names()) {
            std::unique_ptr<BenchProgram> bench =
                buildBenchProgram(name, pregen_cache);
            asm volatile("" : : "r"(bench.get()) : "memory");
        }
        return secondsSince(start);
    };
    double pregen_cold_s = timePregen(); // computes + stores
    double pregen_warm_s = timePregen(); // loads + verifies
    std::filesystem::remove_all(scratch_cache);
    double pregen_speedup =
        pregen_cold_s / (pregen_warm_s > 0 ? pregen_warm_s : 1.0);

    suite.pregenerate();

    // --- 1. The largest image, for the compress and decode timings ----
    const BenchProgram *largest = nullptr;
    for (const std::string &name : suite.names()) {
        const BenchProgram &bench = suite.get(name);
        if (!largest ||
            bench.image.bytes.size() > largest->image.bytes.size())
            largest = &bench;
    }
    u32 blocks = largest->image.numBlocks();

    // --- 1b. Parallel block compression: serial vs CPS_THREADS workers
    std::vector<u32> comp_words;
    comp_words.reserve(largest->program.textWords());
    for (size_t i = 0; i < largest->program.textWords(); ++i)
        comp_words.push_back(largest->program.word(i));
    auto timeCompress = [&](unsigned threads) {
        codepack::CompressorConfig cfg;
        cfg.threads = threads;
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            auto start = Clock::now();
            codepack::CompressedImage img = codepack::compressWords(
                comp_words, largest->program.text.base, cfg);
            best = std::min(best, secondsSince(start));
            asm volatile("" : : "r"(img.bytes.data()) : "memory");
        }
        return best;
    };
    unsigned workers = defaultThreadCount();
    double compress_serial_s = timeCompress(1);
    double compress_parallel_s = timeCompress(workers);
    double compress_speedup =
        compress_serial_s /
        (compress_parallel_s > 0 ? compress_parallel_s : 1.0);

    // --- 1c. Trusted kernel vs checked bit-serial reference ---------
    codepack::Decompressor decomp(largest->image);
    double checked_bps = blocksPerSecond(blocks, [&](u32 b) {
        Result<codepack::DecodedBlock> blk = decomp.tryDecompressBlock(
            b / codepack::kBlocksPerGroup, b % codepack::kBlocksPerGroup);
        asm volatile("" : : "r"(blk.value().words[0]) : "memory");
    });
    double trusted_bps = blocksPerSecond(blocks, [&](u32 b) {
        codepack::DecodedBlock blk = decomp.decompressFlatBlock(b);
        asm volatile("" : : "r"(blk.words[0]) : "memory");
    });
    double decode_speedup =
        trusted_bps / (checked_bps > 0 ? checked_bps : 1.0);
    auto nsPerBlock = [](double bps) {
        return bps > 0 ? 1e9 / bps : 0.0;
    };

    // --- 2. Simulated instructions per second, live vs replay ---------
    const BenchProgram &go = suite.get("go");
    auto simRate = [&](const MachineConfig &cfg, ReplayMode mode) {
        runMachine(go, cfg, 20000, mode); // warm-up
        double best = 0;
        for (int rep = 0; rep < 3; ++rep) {
            u64 simulated = 0;
            auto start = Clock::now();
            double elapsed = 0;
            do {
                RunOutcome out = runMachine(go, cfg, insns, mode);
                simulated += out.result.instructions;
                elapsed = secondsSince(start);
            } while (elapsed < 0.2);
            best =
                std::max(best, static_cast<double>(simulated) / elapsed);
        }
        return best;
    };
    MachineConfig native_cfg = baseline4Issue();
    MachineConfig cp_cfg =
        baseline4Issue().withCodeModel(CodeModel::CodePackOptimized);
    MachineConfig inorder_cfg = baseline1Issue();
    double native_ips = simRate(native_cfg, ReplayMode::ForceLive);
    double native_replay_ips = simRate(native_cfg, ReplayMode::Auto);
    double cp_ips = simRate(cp_cfg, ReplayMode::ForceLive);
    double cp_replay_ips = simRate(cp_cfg, ReplayMode::Auto);
    double inorder_ips = simRate(inorder_cfg, ReplayMode::ForceLive);
    double inorder_replay_ips = simRate(inorder_cfg, ReplayMode::Auto);

    // --- 3. Full-matrix regeneration: serial vs parallel, live vs
    //        replay. serial/parallel use the default mode (replay when
    //        the trace covers), matching what the table binaries do.
    std::vector<harness::RunRequest> reqs = matrixRequests(suite, insns);
    auto timeMatrix = [&](unsigned threads, ReplayMode mode) {
        for (harness::RunRequest &req : reqs)
            req.mode = mode;
        // Best of two passes: a full matrix takes long enough that one
        // scheduler hiccup would otherwise dominate the comparison.
        double best = 1e300;
        for (int rep = 0; rep < 2; ++rep) {
            auto start = Clock::now();
            std::vector<RunOutcome> out =
                harness::runMatrix(reqs, threads);
            best = std::min(best, secondsSince(start));
            asm volatile("" : : "r"(out.data()) : "memory");
        }
        return best;
    };
    double serial_s = timeMatrix(1, ReplayMode::Auto);
    double parallel_s = timeMatrix(workers, ReplayMode::Auto);
    double matrix_live_s = timeMatrix(workers, ReplayMode::ForceLive);
    double matrix_replay_s = parallel_s;
    double replay_speedup =
        matrix_live_s / (matrix_replay_s > 0 ? matrix_replay_s : 1.0);

    TextTable t;
    t.setTitle("Extension: host simulator performance "
               "(simulator wall-clock, not simulated cycles)");
    t.addHeader({"Metric", "Value"});
    t.addRow({"pregeneration, cold cache",
              strfmt("%.3f s (%zu benchmarks)", pregen_cold_s,
                     suite.names().size())});
    t.addRow({"pregeneration, warm cache",
              strfmt("%.3f s (%.1fx)", pregen_warm_s, pregen_speedup)});
    t.addRow({"CodePack compress, serial",
              strfmt("%.4f s (largest benchmark)", compress_serial_s)});
    t.addRow({strfmt("CodePack compress, %u workers", workers),
              strfmt("%.4f s (%.2fx)", compress_parallel_s,
                     compress_speedup)});
    t.addRow({"decode, checked bit-serial",
              strfmt("%s blocks/s (%.1f ns/block)",
                     grouped(checked_bps).c_str(),
                     nsPerBlock(checked_bps))});
    t.addRow({"decode, trusted lut kernel",
              strfmt("%s blocks/s (%.1f ns/block, %.2fx checked)",
                     grouped(trusted_bps).c_str(),
                     nsPerBlock(trusted_bps), decode_speedup)});
    t.addRow({"4-issue native simulation, live",
              strfmt("%s insns/s", grouped(native_ips).c_str())});
    t.addRow({"4-issue native simulation, replay",
              strfmt("%s insns/s (%.2fx)",
                     grouped(native_replay_ips).c_str(),
                     native_replay_ips /
                         (native_ips > 0 ? native_ips : 1.0))});
    t.addRow({"4-issue CodePack-opt simulation, live",
              strfmt("%s insns/s", grouped(cp_ips).c_str())});
    t.addRow({"4-issue CodePack-opt simulation, replay",
              strfmt("%s insns/s (%.2fx)", grouped(cp_replay_ips).c_str(),
                     cp_replay_ips / (cp_ips > 0 ? cp_ips : 1.0))});
    t.addRow({"1-issue in-order simulation, live",
              strfmt("%s insns/s", grouped(inorder_ips).c_str())});
    t.addRow({"1-issue in-order simulation, replay",
              strfmt("%s insns/s (%.2fx)",
                     grouped(inorder_replay_ips).c_str(),
                     inorder_replay_ips /
                         (inorder_ips > 0 ? inorder_ips : 1.0))});
    t.addRow({"matrix regeneration, serial",
              strfmt("%.2f s (%zu runs)", serial_s, reqs.size())});
    t.addRow({strfmt("matrix regeneration, %u workers", workers),
              strfmt("%.2f s (%.2fx)", parallel_s,
                     serial_s / (parallel_s > 0 ? parallel_s : 1.0))});
    t.addRow({strfmt("matrix, %u workers, live core", workers),
              strfmt("%.2f s", matrix_live_s)});
    t.addRow({strfmt("matrix, %u workers, trace replay", workers),
              strfmt("%.2f s (%.2fx)", matrix_replay_s, replay_speedup)});
    t.print();

    // --- JSON trajectory record ---------------------------------------
    FILE *f = std::fopen("BENCH_simperf.json", "w");
    if (!f) {
        std::fprintf(stderr, "could not write BENCH_simperf.json\n");
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"schema\": %d,\n"
        "  \"pregen\": {\n"
        "    \"cold_seconds\": %.4f,\n"
        "    \"warm_seconds\": %.4f,\n"
        "    \"warm_speedup\": %.3f\n"
        "  },\n"
        "  \"compress\": {\n"
        "    \"serial_seconds\": %.5f,\n"
        "    \"parallel_seconds\": %.5f,\n"
        "    \"workers\": %u,\n"
        "    \"speedup\": %.3f\n"
        "  },\n"
        "  \"decode\": {\n"
        "    \"checked_blocks_per_sec\": %.0f,\n"
        "    \"trusted_blocks_per_sec\": %.0f,\n"
        "    \"checked_ns_per_block\": %.1f,\n"
        "    \"trusted_ns_per_block\": %.1f,\n"
        "    \"speedup\": %.3f\n"
        "  },\n"
        "  \"simulation\": {\n"
        "    \"native_insns_per_sec\": %.0f,\n"
        "    \"native_replay_insns_per_sec\": %.0f,\n"
        "    \"codepack_opt_insns_per_sec\": %.0f,\n"
        "    \"codepack_opt_replay_insns_per_sec\": %.0f,\n"
        "    \"inorder_insns_per_sec\": %.0f,\n"
        "    \"inorder_replay_insns_per_sec\": %.0f\n"
        "  },\n"
        "  \"matrix\": {\n"
        "    \"runs\": %zu,\n"
        "    \"insns_per_run\": %llu,\n"
        "    \"serial_seconds\": %.3f,\n"
        "    \"parallel_seconds\": %.3f,\n"
        "    \"workers\": %u,\n"
        "    \"speedup\": %.3f,\n"
        "    \"live_seconds\": %.3f,\n"
        "    \"replay_seconds\": %.3f,\n"
        "    \"replay_speedup\": %.3f\n"
        "  }\n"
        "}\n",
        kSchema, pregen_cold_s, pregen_warm_s, pregen_speedup,
        compress_serial_s, compress_parallel_s, workers,
        compress_speedup, checked_bps, trusted_bps,
        nsPerBlock(checked_bps), nsPerBlock(trusted_bps), decode_speedup,
        native_ips, native_replay_ips,
        cp_ips, cp_replay_ips, inorder_ips, inorder_replay_ips,
        reqs.size(),
        static_cast<unsigned long long>(insns), serial_s, parallel_s,
        workers, serial_s / (parallel_s > 0 ? parallel_s : 1.0),
        matrix_live_s, matrix_replay_s, replay_speedup);
    std::fclose(f);
    std::printf("\nWrote BENCH_simperf.json (schema %d).\n", kSchema);
    return 0;
}
