/**
 * @file
 * Checkpoint/resume journal for experiment matrices.
 *
 * With CPS_RESUME=1 every completed matrix cell's result envelope is
 * appended to an on-disk journal keyed (artifact-cache style) over the
 * whole matrix — every cell key, in order, plus an engine version tag.
 * A table binary killed mid-matrix and rerun replays the journaled
 * cells and executes only the missing ones; the final table is
 * byte-identical to an uninterrupted run because the envelopes hold
 * exactly what runMachine returned.
 *
 * File layout: a header frame carrying the full (uncollided) matrix
 * key, then one record frame per completed cell:
 *   record payload = u32 cellIndex, u64 fnv1a64(cellKey), envelope
 * Frames are CRC'd (common/ipc_frame) and appended with a single
 * write(2) each, so a kill can only tear the final record — loading
 * stops cleanly at the first damaged frame and everything before it is
 * still usable, and the resumed run's first append cuts the torn tail.
 * Only successful cells are journaled; failed cells are re-executed on
 * resume.
 */

#ifndef CPS_HARNESS_JOURNAL_HH
#define CPS_HARNESS_JOURNAL_HH

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cell_runner.hh"

namespace cps
{
namespace harness
{

/** Whether matrix journaling/resume is enabled (CPS_RESUME=1). */
bool resumeEnabled();

/** The journal directory: CPS_CACHE_DIR or ".cps-cache" (shared with
 *  the artifact cache, but independent of CPS_ARTIFACT_CACHE). */
std::string journalDir();

/** One matrix's append-only completion journal. */
class MatrixJournal
{
  public:
    /**
     * @param dir directory holding the journal file
     * @param matrix_key full matrix key (see harness::matrixKey)
     * @param num_cells matrix size; records outside [0, num_cells)
     *        are ignored on load
     */
    MatrixJournal(std::string dir, std::string matrix_key,
                  size_t num_cells);

    /** Path of the journal file. */
    const std::string &path() const { return path_; }

    /**
     * Loads every intact record. Verification failures (wrong matrix
     * key, torn tail, CRC damage, stale cell-key hash) silently drop
     * the affected record and everything after it — a damaged journal
     * costs recomputation, never a wrong table.
     * @return per-cell envelopes; nullopt where the journal has none
     */
    std::vector<std::optional<RunOutcome>>
    load(const std::vector<RunRequest> &requests) const;

    /**
     * Appends one completed cell. Thread-safe; each record is one
     * write(2) + fsync so a checkpoint survives a host crash, and
     * concurrent appends and kills cannot interleave partial records
     * anywhere but the tail. The first append through a handle cuts
     * the file back to its last verified frame, so a torn tail left by
     * a killed run cannot hide the records appended after it. Failures
     * are non-fatal (the cell simply re-executes on resume). Appending
     * to a compacted (complete) journal is a no-op — the record is
     * already there.
     */
    void append(size_t index, const std::string &cell_key,
                const RunOutcome &outcome);

    /**
     * Rewrites a fully-completed journal as its minimal closed form:
     * header, exactly one record per cell, and a completion tombstone
     * frame. Two concurrent runs of the same matrix sharing a cache
     * directory each append every cell, so the file can hold
     * duplicate records; compaction drops them, and after it further
     * appends are suppressed (see append) and loads stay O(cells).
     * Atomic (temp + rename); best-effort like every journal write.
     * @return true when the journal is complete (already or now)
     */
    bool compact(const std::vector<RunRequest> &requests);

    /** Whether a completion tombstone has been observed/written. */
    bool complete() const;

  private:
    /** What a scan of the file's verified frames found. */
    struct Scan
    {
        bool complete = false;  ///< a completion tombstone is present
        size_t intactBytes = 0; ///< end of the last verified frame
        size_t fileBytes = 0;   ///< 0 when the file is missing
    };

    /** Scans the file's frames up to the first damaged one (mutex_
     *  held). */
    Scan scan() const;

    std::string dir_;
    std::string matrixKey_;
    std::string path_;
    size_t numCells_;
    mutable std::mutex mutex_;
    bool headerWritten_ = false;
    mutable bool complete_ = false; ///< tombstone seen or written
};

} // namespace harness
} // namespace cps

#endif // CPS_HARNESS_JOURNAL_HH
