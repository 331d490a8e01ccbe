/**
 * @file
 * On-disk content-addressed artifact cache.
 *
 * Benchmark pregeneration does the same expensive work in every process
 * and on every re-run: generate a program, compress it, record its
 * functional trace. All of it is a pure function of a small set of
 * inputs (profile + seed, compressor id + config, format/code
 * versions), so the results are cached on disk under a key derived from
 * exactly those inputs. A warm run loads and verifies instead of
 * recomputing.
 *
 * Trust model: cache entries are untrusted input (another process, a
 * crashed writer or a bad disk may have produced them). Every load is
 * verified — the envelope carries a CRC-32 over the full key + payload,
 * and the payloads (compressed images, traces) re-verify their own
 * section CRCs on decode. Any mismatch is treated as a miss and the
 * caller recomputes; a corrupt cache can cost time, never correctness.
 *
 * Concurrency: writers serialize each entry into a private temp file in
 * the cache directory and publish it with an atomic rename(2), so
 * concurrent bench processes storing the same key race benignly (one
 * complete entry wins) and readers never observe a partial file.
 *
 * Entry file layout (little-endian), named `<fnv1a64(key) hex>.art`:
 *   magic "CPSART1\0"            8 bytes
 *   u32 keyLen, key bytes        the full (uncollided) cache key
 *   u32 payloadLen, payload
 *   u32 CRC-32 over everything above
 *
 * Housekeeping: opening a cache sweeps temp files abandoned by killed
 * writers (any `*.tmp.*` older than an hour). It is best-effort — a
 * cache that cannot be cleaned still works, it just wastes disk.
 *
 * Knobs: CPS_CACHE_DIR overrides the directory (default ".cps-cache"
 * under the working directory); CPS_ARTIFACT_CACHE=0 disables the cache
 * entirely (loads miss, stores are no-ops).
 */

#ifndef CPS_COMMON_ARTIFACT_CACHE_HH
#define CPS_COMMON_ARTIFACT_CACHE_HH

#include <optional>
#include <string>
#include <vector>

#include "types.hh"

namespace cps
{

/** A directory of verified, atomically published cache entries. */
class ArtifactCache
{
  public:
    /**
     * @param dir directory holding the entries (created lazily on the
     *        first store)
     * @param enabled when false, load() always misses and store() is a
     *        no-op — the recompute path runs as if the cache never
     *        existed
     */
    ArtifactCache(std::string dir, bool enabled);

    /** The process-wide instance, configured once from the environment
     *  (CPS_CACHE_DIR, CPS_ARTIFACT_CACHE). */
    static const ArtifactCache &instance();

    bool enabled() const { return enabled_; }
    const std::string &dir() const { return dir_; }

    /**
     * Loads the payload stored under @p key. Returns nullopt on miss
     * or on any verification failure (bad magic, wrong key, truncation,
     * CRC mismatch) — the caller recomputes either way.
     */
    std::optional<std::vector<u8>> load(const std::string &key) const;

    /**
     * Stores @p payload under @p key (atomic rename; concurrent writers
     * of the same key are safe). Failures are non-fatal: the cache is
     * an accelerator, so a full disk or unwritable directory just means
     * the next run recomputes.
     * @return true when the entry was published
     */
    bool store(const std::string &key, const std::vector<u8> &payload) const;

    /** Hex FNV-1a 64-bit digest of @p key (the entry's file name stem). */
    static std::string keyHash(const std::string &key);

    /** Full path of the entry file that would hold @p key. */
    std::string entryPath(const std::string &key) const;

    /**
     * Housekeeping pass, run automatically at construction: removes
     * `*.tmp.*` files older than @p tmp_age_seconds (killed writers
     * never publish their temp file, so anything old is garbage).
     * Best-effort: every filesystem error is swallowed. Exposed for
     * tests.
     */
    void maintain(u64 tmp_age_seconds = 3600) const;

  private:
    std::string dir_;
    bool enabled_;
};

} // namespace cps

#endif // CPS_COMMON_ARTIFACT_CACHE_HH
