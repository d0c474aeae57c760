#include "src/common/resource.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/utilization.h"  // header-inline record(); no link dep

namespace recssd
{

SerialResource::SerialResource(EventQueue &eq, std::string name)
    : eq_(eq), name_(std::move(name))
{
}

Tick
SerialResource::acquire(Tick service, EventQueue::Callback &&done)
{
    Tick start = std::max(eq_.now(), freeAt_);
    freeAt_ = start + service;
    busy_ += service;
    if (UtilizationCollector *util = eq_.util())
        util->record(name_, eq_.now(), start, freeAt_);
    // Always schedule the completion so simulated time covers the
    // work even when nobody waits on it.
    if (!done)
        done = []() {};
    eq_.schedule(freeAt_, std::move(done));
    return freeAt_;
}

PoolResource::PoolResource(EventQueue &eq, std::string name, unsigned servers)
    : eq_(eq), name_(std::move(name)), freeAt_(servers, 0)
{
    recssd_assert(servers > 0, "pool '%s' needs at least one server",
                  name_.c_str());
}

Tick
PoolResource::earliestFree() const
{
    return *std::min_element(freeAt_.begin(), freeAt_.end());
}

Tick
PoolResource::acquire(Tick service, EventQueue::Callback &&done)
{
    auto it = std::min_element(freeAt_.begin(), freeAt_.end());
    Tick start = std::max(eq_.now(), *it);
    *it = start + service;
    busy_ += service;
    if (UtilizationCollector *util = eq_.util())
        util->record(name_, eq_.now(), start, *it, servers());
    if (!done)
        done = []() {};
    eq_.schedule(*it, std::move(done));
    return *it;
}

}  // namespace recssd
