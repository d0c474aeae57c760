/**
 * @file
 * Set-associative LRU cache of logical pages held in SSD DRAM.
 *
 * The cache stores only the identity of cached pages (LPN -> PPN at
 * fill time); the bytes themselves are read through the DataStore at
 * the recorded PPN, which is exactly what a DRAM-resident copy would
 * contain. A hit saves the flash array access but still pays firmware
 * and transfer costs at the callers' discretion.
 */

#ifndef RECSSD_FTL_PAGE_CACHE_H
#define RECSSD_FTL_PAGE_CACHE_H

#include <cstdint>
#include <vector>

#include "src/common/analysis.h"
#include "src/common/stats.h"
#include "src/common/types.h"

namespace recssd
{

class PageCache
{
  public:
    /**
     * @param capacity_pages Total entries.
     * @param ways Associativity (capacity must divide evenly).
     */
    PageCache(unsigned capacity_pages, unsigned ways);

    /**
     * Look up a logical page; refreshes LRU state on hit.
     * @param[out] ppn Physical location of the cached copy.
     */
    bool lookup(Lpn lpn, Ppn &ppn) RECSSD_LIVE_LOOKUP;

    /** Insert (possibly evicting the set's LRU entry). */
    void insert(Lpn lpn, Ppn ppn);

    /** Drop a logical page (overwrite/GC made the copy stale). */
    void invalidate(Lpn lpn);

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    unsigned capacity() const { return static_cast<unsigned>(entries_.size()); }
    unsigned ways() const { return ways_; }

    double
    hitRate() const
    {
        std::uint64_t total = hits() + misses();
        return total ? static_cast<double>(hits()) / total : 0.0;
    }

  private:
    struct Entry
    {
        Lpn lpn = invalidLpn;
        Ppn ppn = invalidPpn;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t setOf(Lpn lpn) const;

    unsigned ways_;
    unsigned numSets_;
    std::uint64_t useClock_ = 0;
    std::vector<Entry> entries_;

    Counter hits_;
    Counter misses_;
};

}  // namespace recssd

#endif  // RECSSD_FTL_PAGE_CACHE_H
