/**
 * @file
 * The CodePack index cache (paper §5.3, Table 6).
 *
 * The index table lives in main memory; the decompressor caches recently
 * used entries. The paper's baseline CodePack keeps exactly the last-used
 * entry (1 line x 1 index); the optimized configuration is a
 * fully-associative cache of 64 lines with 4 index entries per line
 * ("1KB of index entries and 88 bytes of tag storage"). Every geometry
 * is fully associative with true-LRU replacement.
 *
 * Lookup is by compression-group number. A line covers @c indexesPerLine
 * consecutive groups, so a single fill maps indexesPerLine * 128 bytes of
 * native text.
 */

#ifndef CPS_CACHE_INDEX_CACHE_HH
#define CPS_CACHE_INDEX_CACHE_HH

#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace cps
{

/** Fully-associative true-LRU cache over index-table entries. */
class IndexCache
{
  public:
    /**
     * @param lines number of cache lines
     * @param indexes_per_line consecutive index entries per line
     */
    IndexCache(unsigned lines, unsigned indexes_per_line)
        : indexesPerLine_(indexes_per_line), lines_(lines)
    {
        cps_assert(lines >= 1 && indexes_per_line >= 1,
                   "index cache needs at least one line and one index");
    }

    unsigned numLines() const { return static_cast<unsigned>(lines_.size()); }
    unsigned indexesPerLine() const { return indexesPerLine_; }

    /** Total bytes of index entries held (each entry is 32 bits). */
    unsigned
    dataBytes() const
    {
        return numLines() * indexesPerLine_ * 4;
    }

    /**
     * Looks up the line covering compression group @p group.
     * @return true on hit (LRU updated)
     */
    bool
    access(u32 group)
    {
        u32 tag = group / indexesPerLine_;
        for (Line &l : lines_) {
            if (l.valid && l.tag == tag) {
                l.lastUse = ++useClock_;
                return true;
            }
        }
        return false;
    }

    /** Inserts the line covering @p group into an invalid line, or
     *  over the least recently used one. */
    void
    fill(u32 group)
    {
        Line *victim = nullptr;
        for (Line &l : lines_) {
            if (!l.valid) {
                victim = &l;
                break;
            }
            if (!victim || l.lastUse < victim->lastUse)
                victim = &l;
        }
        victim->valid = true;
        victim->tag = group / indexesPerLine_;
        victim->lastUse = ++useClock_;
    }

    /** Invalidates all lines (and resets the LRU clock). */
    void
    invalidateAll()
    {
        for (Line &l : lines_)
            l = Line{};
        useClock_ = 0;
    }

  private:
    struct Line
    {
        bool valid = false;
        u32 tag = 0;
        u64 lastUse = 0;
    };

    unsigned indexesPerLine_;
    u64 useClock_ = 0;
    std::vector<Line> lines_;
};

} // namespace cps

#endif // CPS_CACHE_INDEX_CACHE_HH
