#include "src/ftl/page_cache.h"

#include "src/common/logging.h"

namespace recssd
{

PageCache::PageCache(unsigned capacity_pages, unsigned ways) : ways_(ways)
{
    recssd_assert(ways > 0 && capacity_pages >= ways &&
                      capacity_pages % ways == 0,
                  "page cache capacity must be a positive multiple of ways");
    numSets_ = capacity_pages / ways;
    entries_.resize(capacity_pages);
}

std::uint64_t
PageCache::setOf(Lpn lpn) const
{
    // Multiplicative hash to spread adjacent pages across sets.
    return (lpn * 0x9e3779b97f4a7c15ull >> 17) % numSets_;
}

bool
PageCache::lookup(Lpn lpn, Ppn &ppn)
{
    Entry *set = &entries_[setOf(lpn) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].lpn == lpn) {
            set[w].lastUse = ++useClock_;
            ppn = set[w].ppn;
            hits_.inc();
            return true;
        }
    }
    misses_.inc();
    return false;
}

void
PageCache::insert(Lpn lpn, Ppn ppn)
{
    Entry *set = &entries_[setOf(lpn) * ways_];
    Entry *victim = &set[0];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].lpn == lpn || set[w].lpn == invalidLpn) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    victim->lpn = lpn;
    victim->ppn = ppn;
    victim->lastUse = ++useClock_;
}

void
PageCache::invalidate(Lpn lpn)
{
    Entry *set = &entries_[setOf(lpn) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (set[w].lpn == lpn) {
            set[w] = Entry{};
            return;
        }
    }
}

}  // namespace recssd
