#include "src/flash/data_store.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace recssd
{

DataStore::Page
DataStore::makePage(std::span<const std::byte> data) const
{
    recssd_assert(data.size() <= pageSize_,
                  "write larger than page (%zu > %u)", data.size(),
                  pageSize_);
    auto page = std::make_shared<std::vector<std::byte>>(data.begin(),
                                                         data.end());
    page->resize(pageSize_);
    return page;
}

std::shared_ptr<std::vector<std::byte>>
DataStore::copyPage(Ppn ppn) const
{
    if (Page page = stored(ppn))
        return std::make_shared<std::vector<std::byte>>(*page);
    auto page = std::make_shared<std::vector<std::byte>>(pageSize_);
    read(ppn, 0, *page);
    return page;
}

void
DataStore::write(Ppn ppn, Page data)
{
    recssd_assert(data != nullptr, "write without a page buffer");
    if (data->size() != pageSize_)
        data = makePage(*data);
    stored_[ppn] = std::move(data);
}

const std::pair<const Ppn, DataStore::Region> *
DataStore::findRegion(Ppn ppn) const
{
    if (lastRegion_ && ppn >= lastRegion_->first &&
        ppn < lastRegion_->first + lastRegion_->second.pages)
        return lastRegion_;
    auto it = regions_.upper_bound(ppn);
    if (it == regions_.begin())
        return nullptr;
    --it;
    if (ppn < it->first + it->second.pages) {
        lastRegion_ = &*it;
        return lastRegion_;
    }
    return nullptr;
}

void
DataStore::read(Ppn ppn, std::size_t offset, std::span<std::byte> out) const
{
    recssd_assert(offset + out.size() <= pageSize_,
                  "read beyond page end (%zu + %zu > %u)", offset,
                  out.size(), pageSize_);
    // Read-only runs never store explicit pages; skip the hash probe.
    if (!stored_.empty()) {
        auto it = stored_.find(ppn);
        if (it != stored_.end()) {
            std::memcpy(out.data(), it->second->data() + offset,
                        out.size());
            return;
        }
    }
    if (const auto *region = findRegion(ppn)) {
        region->second.gen(ppn - region->first, offset, out);
        return;
    }
    std::ranges::fill(out, std::byte{0});
}

void
DataStore::erase(Ppn ppn)
{
    stored_.erase(ppn);
}

void
DataStore::registerSynthetic(Ppn start, std::uint64_t pages, Generator gen)
{
    recssd_assert(pages > 0, "empty synthetic region");
    // Reject overlap with existing regions; overlapping content would
    // be ambiguous.
    recssd_assert(findRegion(start) == nullptr &&
                      findRegion(start + pages - 1) == nullptr,
                  "synthetic regions must not overlap");
    auto it = regions_.lower_bound(start);
    recssd_assert(it == regions_.end() || it->first >= start + pages,
                  "synthetic regions must not overlap");
    regions_.emplace(start, Region{pages, std::move(gen)});
}

}  // namespace recssd
