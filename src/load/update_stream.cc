#include "src/load/update_stream.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace recssd
{

UpdateStream::UpdateStream(const UpdateStreamSpec &spec,
                           std::vector<std::uint64_t> tableRows,
                           std::uint64_t seed)
    : spec_(spec), tableRows_(std::move(tableRows)), rng_(seed)
{
    recssd_assert(spec_.enabled(), "update stream constructed while off");
    recssd_assert(spec_.rate >= minUpdateRate && spec_.rate <= maxUpdateRate,
                  "update rate %g rows/s out of range", spec_.rate);
    recssd_assert(!tableRows_.empty(), "update stream needs tables");
    std::uint64_t total = 0;
    cumRows_.reserve(tableRows_.size());
    for (std::uint64_t rows : tableRows_) {
        recssd_assert(rows > 0, "update stream table with zero rows");
        total += rows;
        cumRows_.push_back(total);
    }
    meanGapNs_ = 1e9 / spec_.rate;
    if (spec_.skew > 0.0) {
        ZipfSamplerPool pool;
        zipf_.reserve(tableRows_.size());
        for (std::uint64_t rows : tableRows_)
            zipf_.push_back(pool.get(rows, spec_.skew));
    }
}

Tick
UpdateStream::nextGap()
{
    return std::max<Tick>(
        1, static_cast<Tick>(std::llround(rng_.exponential(meanGapNs_))));
}

UpdateDesc
UpdateStream::nextRow()
{
    // Weighted table pick: a uniform draw over the global row space,
    // mapped back through the prefix sums.
    std::uint64_t pick = rng_.uniformInt(cumRows_.back());
    auto it = std::upper_bound(cumRows_.begin(), cumRows_.end(), pick);
    auto table = static_cast<std::uint32_t>(it - cumRows_.begin());

    RowId row = spec_.skew > 0.0 ? zipf_[table]->sample(rng_)
                                 : rng_.uniformInt(tableRows_[table]);
    return UpdateDesc{table, row};
}

}  // namespace recssd
