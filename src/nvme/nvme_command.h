/**
 * @file
 * NVMe command structures, including the RecSSD SLS extension.
 *
 * RecSSD stays protocol compatible (§4.3): SLS operations reuse the
 * ordinary read/write command layout and are distinguished by a single
 * otherwise-unused command bit (`slsFlag`). The request ID that ties a
 * config-write to its result-read is embedded in the starting logical
 * block address: slba = table_base + request_id, recoverable on the
 * device with a modulus because tables are aligned to
 * `slsTableAlign` logical pages.
 */

#ifndef RECSSD_NVME_NVME_COMMAND_H
#define RECSSD_NVME_NVME_COMMAND_H

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"

namespace recssd
{

/** Logical-page alignment guaranteed for every embedding table. */
constexpr std::uint64_t slsTableAlign = 1ull << 22;  // 4M pages = 64GB

enum class NvmeOpcode : std::uint8_t
{
    Read = 0x02,
    Write = 0x01,
    /** Dataset management / deallocate (trim). */
    Dsm = 0x09,
};

struct NvmeCommand
{
    NvmeOpcode opcode = NvmeOpcode::Read;
    /** RecSSD: the repurposed unused command bit. */
    bool slsFlag = false;
    /** Starting logical page (16KB units in this model). */
    std::uint64_t slba = 0;
    /** Number of logical pages. */
    std::uint32_t nlb = 1;
    /** Command identifier assigned by the submitting queue. */
    std::uint16_t cid = 0;
    /** Tick at which the host rang the doorbell (timing bookkeeping). */
    Tick submitTick = 0;
    /** Observability: owning trace request id (0 = untraced). */
    std::uint64_t traceId = 0;
    /**
     * Functional payload for writes / SLS config. Immutable once
     * submitted: a data write's buffer becomes the stored flash page
     * itself (no copy), so the host must not change it afterwards.
     */
    std::shared_ptr<const std::vector<std::byte>> payload;
};

/** Split an SLS command SLBA into table base and request id. */
struct SlsAddress
{
    std::uint64_t tableBase;
    std::uint64_t requestId;

    static SlsAddress
    decode(std::uint64_t slba)
    {
        return SlsAddress{slba - (slba % slsTableAlign),
                          slba % slsTableAlign};
    }

    static std::uint64_t
    encode(std::uint64_t table_base, std::uint64_t request_id)
    {
        return table_base + request_id;
    }
};

}  // namespace recssd

#endif  // RECSSD_NVME_NVME_COMMAND_H
