#include "artifact_cache.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "byteio.hh"
#include "crc32.hh"
#include "logging.hh"

namespace cps
{

namespace
{

constexpr char kMagic[8] = {'C', 'P', 'S', 'A', 'R', 'T', '1', '\0'};

/** Distinguishes the temp files of concurrent writers in one process. */
std::atomic<u64> tmpSeq{0};

/** The envelope up to the payload: magic, key length, key, payload length. */
std::vector<u8>
envelopeHeader(const std::string &key, u32 payload_len)
{
    std::vector<u8> out(kMagic, kMagic + sizeof(kMagic));
    put32(out, static_cast<u32>(key.size()));
    out.insert(out.end(), key.begin(), key.end());
    put32(out, payload_len);
    return out;
}

} // namespace

ArtifactCache::ArtifactCache(std::string dir, bool enabled)
    : dir_(std::move(dir)), enabled_(enabled)
{
    if (enabled_)
        maintain();
}

const ArtifactCache &
ArtifactCache::instance()
{
    static const ArtifactCache cache = [] {
        const bool enabled = envFlag("CPS_ARTIFACT_CACHE", true);
        std::string dir = ".cps-cache";
        if (const char *env = std::getenv("CPS_CACHE_DIR"))
            if (*env != '\0')
                dir = env;
        return ArtifactCache(dir, enabled);
    }();
    return cache;
}

void
ArtifactCache::maintain(u64 tmp_age_seconds) const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(dir_, ec);
    if (ec)
        return; // no directory yet (or unreadable): nothing to clean

    const auto now = fs::file_time_type::clock::now();
    for (const fs::directory_entry &de : it) {
        if (!de.is_regular_file(ec) ||
            de.path().filename().string().find(".tmp.") == std::string::npos)
            continue;
        fs::file_time_type mtime = de.last_write_time(ec);
        if (ec)
            continue;
        // A writer publishes its temp file within milliseconds of
        // creating it; an old one belongs to a killed process.
        auto age =
            std::chrono::duration_cast<std::chrono::seconds>(now - mtime)
                .count();
        if (age >= 0 && static_cast<u64>(age) >= tmp_age_seconds)
            fs::remove(de.path(), ec);
    }
}

std::string
ArtifactCache::keyHash(const std::string &key)
{
    // FNV-1a 64. Collisions are defended against by storing (and
    // checking) the full key inside the entry, so the hash only has to
    // spread file names, not be cryptographic.
    u64 h = 14695981039346656037ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
ArtifactCache::entryPath(const std::string &key) const
{
    return dir_ + "/" + keyHash(key) + ".art";
}

std::optional<std::vector<u8>>
ArtifactCache::load(const std::string &key) const
{
    if (!enabled_)
        return std::nullopt;
    FileReader in(entryPath(key));
    if (!in.isOpen())
        return std::nullopt; // miss

    // Everything below is verification of untrusted bytes: any failure
    // is a miss, never an error (the caller recomputes and overwrites).
    // The entry is read in one pass: the header this key implies, then
    // the payload straight into the buffer handed back, then the CRC.
    const std::vector<u8> expected = envelopeHeader(key, 0);
    std::vector<u8> header(expected.size());
    if (!in.read(header.data(), header.size()))
        return std::nullopt; // truncated header
    const size_t key_end = header.size() - 4;
    if (std::memcmp(header.data(), expected.data(), key_end) != 0)
        return std::nullopt; // bad magic, or another key (hash collision)
    const u32 payload_len = loadLe32(header.data() + key_end);
    if (in.size() != header.size() + size_t{payload_len} + 4)
        return std::nullopt; // torn or padded entry
    std::vector<u8> payload(payload_len);
    u8 trailer[4] = {};
    if (!in.read(payload.data(), payload.size()) || !in.read(trailer, 4))
        return std::nullopt;
    if (crc32(payload.data(), payload.size(), crc32(header)) !=
        loadLe32(trailer))
        return std::nullopt; // bit-flipped entry
    return payload;
}

bool
ArtifactCache::store(const std::string &key,
                     const std::vector<u8> &payload) const
{
    if (!enabled_)
        return false;

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return false;

    // The header, the payload and the CRC trailer are written in
    // sequence; the CRC chains over the first two, so the payload is
    // never copied into a whole-entry buffer.
    const std::vector<u8> header =
        envelopeHeader(key, static_cast<u32>(payload.size()));
    u8 trailer[4] = {};
    storeLe32(trailer, crc32(payload.data(), payload.size(),
                             crc32(header)));

    // Write to a writer-private temp name in the same directory, then
    // publish with rename(2): readers see the old entry or the complete
    // new one, never a partial write, and the last concurrent writer of
    // a key wins with a valid entry.
    std::string tmp = strfmt(
        "%s/%s.tmp.%ld.%llu", dir_.c_str(), keyHash(key).c_str(),
        static_cast<long>(getpid()),
        static_cast<unsigned long long>(
            tmpSeq.fetch_add(1, std::memory_order_relaxed)));
    if (!writeFileParts(tmp, {header, payload, trailer})) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    std::filesystem::rename(tmp, entryPath(key), ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace cps
