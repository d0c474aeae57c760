/**
 * @file
 * Functional page contents for the simulated flash array.
 *
 * The evaluation tables are hundreds of gigabytes of *logical* data,
 * so the store keeps two tiers:
 *
 *  - explicitly written pages, held sparsely in memory (the real write
 *    path used by FTL/GC tests and small workloads), and
 *  - synthetic regions: PPN ranges whose content is produced on demand
 *    by a registered generator (used to "pre-load" embedding tables
 *    without materializing them).
 *
 * Reads can ask for a byte sub-range so a 256B embedding vector does
 *   not force a 16KB materialization.
 *
 * Explicit pages are immutable, shared buffers (`Page`): a write
 * stores the buffer the host submitted by reference, and GC or a
 * hot-row migration stores the source page's buffer at the
 * destination PPN. Erasing the source drops only its reference.
 */

#ifndef RECSSD_FLASH_DATA_STORE_H
#define RECSSD_FLASH_DATA_STORE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"

namespace recssd
{

/** Byte-level backing store for physical flash pages. */
class DataStore
{
  public:
    /**
     * Generator for synthetic page content.
     * @param page_in_region Page index relative to the region start.
     * @param offset Byte offset within the page being requested.
     * @param out Destination span to fill.
     */
    using Generator = std::function<void(std::uint64_t page_in_region,
                                         std::size_t offset,
                                         std::span<std::byte> out)>;

    /** An explicit page's bytes, shared by every PPN holding them. */
    using Page = std::shared_ptr<const std::vector<std::byte>>;

    explicit DataStore(unsigned page_size) : pageSize_(page_size) {}

    unsigned pageSize() const { return pageSize_; }

    /** Copy bytes into a fresh page buffer, zero-padding a short one
     *  to the page size (one copy, no separate fill of the rest). */
    Page makePage(std::span<const std::byte> data) const;

    /** Store explicit page content (copies the bytes once). */
    void write(Ppn ppn, std::span<const std::byte> data)
    {
        write(ppn, makePage(data));
    }

    /** Store explicit page content by reference; the buffer must not
     *  change afterwards. One shorter than a page is copied padded. */
    void write(Ppn ppn, Page data);

    /** The page's explicit buffer, or null (synthetic or unwritten). */
    Page
    stored(Ppn ppn) const
    {
        auto it = stored_.find(ppn);
        return it == stored_.end() ? nullptr : it->second;
    }

    /** A private, mutable copy of the whole page as `read` sees it,
     *  made in one pass (a stored page is copied, not zeroed first). */
    std::shared_ptr<std::vector<std::byte>> copyPage(Ppn ppn) const;

    /** The whole page as an immutable buffer: the stored buffer itself,
     *  or for a synthetic or unwritten page a copy made once. */
    Page
    sharePage(Ppn ppn) const
    {
        if (Page page = stored(ppn))
            return page;
        return copyPage(ppn);
    }

    /**
     * Copy `out.size()` bytes starting at `offset` within the page.
     * Falls back to a synthetic region, then to zero fill.
     */
    void read(Ppn ppn, std::size_t offset, std::span<std::byte> out) const;

    /** Drop explicit content for a page (block erase path). */
    void erase(Ppn ppn);

    /** Register a synthetic region covering [start, start+pages). */
    void registerSynthetic(Ppn start, std::uint64_t pages, Generator gen);

    /** True if the page has explicitly written content. */
    bool hasStored(Ppn ppn) const { return stored_.contains(ppn); }

    /**
     * True if reading the page yields real content (explicit bytes or
     * a synthetic region) rather than the zero-fill fallback. A PPN
     * that was erased and not rewritten is not covered — the torn-sum
     * audit uses this to tell "legitimately old bytes" apart from
     * "destroyed bytes".
     */
    bool covered(Ppn ppn) const
    {
        return stored_.contains(ppn) || findRegion(ppn) != nullptr;
    }

    /** Number of explicitly stored pages. */
    std::size_t storedPages() const { return stored_.size(); }

  private:
    struct Region
    {
        std::uint64_t pages;
        Generator gen;
    };

    /** Find the synthetic region covering ppn, or nullptr. */
    const std::pair<const Ppn, Region> *findRegion(Ppn ppn) const;

    unsigned pageSize_;
    std::unordered_map<Ppn, Page> stored_;
    std::map<Ppn, Region> regions_;  // keyed by region start
    /** The region findRegion last returned: page gathers hit the same
     *  table region back to back. Map nodes never move. */
    mutable const std::pair<const Ppn, Region> *lastRegion_ = nullptr;
};

}  // namespace recssd

#endif  // RECSSD_FLASH_DATA_STORE_H
