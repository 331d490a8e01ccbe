#include "journal.hh"

#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <sys/stat.h>
#include <unistd.h>

#include "common/byteio.hh"
#include "common/ipc_frame.hh"
#include "common/logging.hh"

namespace cps
{
namespace harness
{

namespace
{

constexpr u32 kFrameJournalHeader = 100;
constexpr u32 kFrameJournalRecord = 101;
/** Tombstone closing a fully-completed journal (see compact()). */
constexpr u32 kFrameJournalComplete = 102;

/** Length of ArtifactCache::keyHash output (hex FNV-1a 64). */
constexpr size_t kHashChars = 16;

/** Writes @p bytes to @p path in one append; best-effort. */
bool
appendOnce(const std::string &path, const std::vector<u8> &bytes)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0)
        return false;
    // One write(2) per record: a kill tears at most the file's tail,
    // and O_APPEND keeps concurrent appenders from interleaving.
    ssize_t w = ::write(fd, bytes.data(), bytes.size());
    // The journal is a durability promise — a checkpoint that only
    // reached the page cache is lost to the very host crash it exists
    // to survive. One fsync per completed cell is cheap next to the
    // simulation that produced it.
    ::fsync(fd);
    ::close(fd);
    return w == static_cast<ssize_t>(bytes.size());
}

} // namespace

bool
resumeEnabled()
{
    static const bool cached = [] {
        const char *env = std::getenv("CPS_RESUME");
        return env != nullptr && std::string(env) != "0";
    }();
    return cached;
}

std::string
journalDir()
{
    if (const char *env = std::getenv("CPS_CACHE_DIR"))
        if (*env != '\0')
            return env;
    return ".cps-cache";
}

MatrixJournal::MatrixJournal(std::string dir, std::string matrix_key,
                             size_t num_cells)
    : dir_(std::move(dir)), matrixKey_(std::move(matrix_key)),
      numCells_(num_cells)
{
    path_ = dir_ + "/" + ArtifactCache::keyHash(matrixKey_) + ".journal";
}

std::vector<std::optional<RunOutcome>>
MatrixJournal::load(const std::vector<RunRequest> &requests) const
{
    std::vector<std::optional<RunOutcome>> out(numCells_);
    auto bytes = readFileBytes(path_);
    if (!bytes)
        return out; // no journal yet

    size_t pos = 0;
    IpcFrame frame;

    // Header: the full matrix key defends the (hashed) file name
    // against collisions and the journal against a changed matrix.
    if (decodeFrameAt(*bytes, pos, frame) != FrameReadStatus::Ok ||
        frame.type != kFrameJournalHeader ||
        std::string(frame.payload.begin(), frame.payload.end()) !=
            matrixKey_) {
        return std::vector<std::optional<RunOutcome>>(numCells_);
    }

    while (decodeFrameAt(*bytes, pos, frame) == FrameReadStatus::Ok) {
        if (frame.type == kFrameJournalComplete) {
            complete_ = true;
            continue;
        }
        if (frame.type != kFrameJournalRecord)
            continue; // unknown record kind: skip, stay compatible
        ByteCursor cur(frame.payload);
        u32 index = cur.get32();
        std::string hash = cur.getString(kHashChars);
        if (!cur.ok() || index >= numCells_ || index >= requests.size())
            continue;
        if (hash != ArtifactCache::keyHash(cellKey(requests[index])))
            continue; // stale record for a changed cell
        Result<RunOutcome> env =
            decodeRunOutcomeChecked(cur.getBytes(cur.remaining()));
        if (!env)
            continue;
        out[index] = std::move(*env);
    }
    // decodeFrameAt stopping on Torn drops the (killed-mid-append)
    // tail; everything verified above it stands.
    return out;
}

void
MatrixJournal::append(size_t index, const std::string &cell_key,
                      const RunOutcome &outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (complete_)
        return; // compacted: every cell's record is already on disk

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        return;

    if (!headerWritten_) {
        struct stat st;
        bool empty = ::stat(path_.c_str(), &st) != 0 || st.st_size == 0;
        if (!empty && scanComplete()) {
            complete_ = true;
            return;
        }
        if (empty) {
            std::vector<u8> key_bytes(matrixKey_.begin(),
                                      matrixKey_.end());
            if (!appendOnce(path_,
                            encodeFrame(kFrameJournalHeader, key_bytes)))
                return;
        }
        headerWritten_ = true;
    }

    std::vector<u8> payload;
    put32(payload, static_cast<u32>(index));
    std::string hash = ArtifactCache::keyHash(cell_key);
    payload.insert(payload.end(), hash.begin(), hash.end());
    std::vector<u8> env = encodeRunOutcome(outcome);
    payload.insert(payload.end(), env.begin(), env.end());
    appendOnce(path_, encodeFrame(kFrameJournalRecord, payload));
}

bool
MatrixJournal::scanComplete() const
{
    auto bytes = readFileBytes(path_);
    if (!bytes)
        return false;
    size_t pos = 0;
    IpcFrame frame;
    while (decodeFrameAt(*bytes, pos, frame) == FrameReadStatus::Ok)
        if (frame.type == kFrameJournalComplete)
            return true;
    return false;
}

bool
MatrixJournal::complete() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // A fresh handle may not have touched the file yet; observe the
    // on-disk tombstone rather than reporting "unknown" as "no".
    if (!complete_ && scanComplete())
        complete_ = true;
    return complete_;
}

bool
MatrixJournal::compact(const std::vector<RunRequest> &requests)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (complete_)
        return true;

    std::vector<std::optional<RunOutcome>> records = load(requests);
    for (const std::optional<RunOutcome> &rec : records)
        if (!rec)
            return false; // incomplete journals keep appending

    // Closed form: header, one record per cell, tombstone. Written to
    // a private temp and renamed so a reader (or a kill) never sees a
    // half-rewritten journal.
    std::vector<u8> out = encodeFrame(
        kFrameJournalHeader,
        std::vector<u8>(matrixKey_.begin(), matrixKey_.end()));
    for (size_t i = 0; i < records.size(); ++i) {
        std::vector<u8> payload;
        put32(payload, static_cast<u32>(i));
        std::string hash = ArtifactCache::keyHash(cellKey(requests[i]));
        payload.insert(payload.end(), hash.begin(), hash.end());
        std::vector<u8> env = encodeRunOutcome(*records[i]);
        payload.insert(payload.end(), env.begin(), env.end());
        std::vector<u8> frame = encodeFrame(kFrameJournalRecord, payload);
        out.insert(out.end(), frame.begin(), frame.end());
    }
    std::vector<u8> tomb = encodeFrame(kFrameJournalComplete, {});
    out.insert(out.end(), tomb.begin(), tomb.end());

    std::string tmp = path_ + ".tmp." + std::to_string(::getpid());
    if (!writeFileBytes(tmp, out)) {
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    complete_ = true;
    headerWritten_ = true;
    return true;
}

} // namespace harness
} // namespace cps
