/**
 * @file
 * Encoding of embedding elements at different attribute sizes.
 *
 * The SLS interface supports quantized tables (attribute size 1 or 2
 * bytes) in addition to fp32. Quantized codes decode to their integer
 * value; accumulation always happens in fp32, on the device and on the
 * host alike, so results are comparable bit for bit across backends.
 */

#ifndef RECSSD_NDP_ATTR_CODEC_H
#define RECSSD_NDP_ATTR_CODEC_H

#include <cstdint>
#include <cstring>
#include <span>

#include "src/common/logging.h"

namespace recssd
{

/** Decode one element at byte position `idx * attr_bytes`. */
inline float
decodeAttr(std::span<const std::byte> raw, std::uint32_t idx,
           std::uint32_t attr_bytes)
{
    switch (attr_bytes) {
      case 4: {
        float v;
        std::memcpy(&v, raw.data() + std::size_t(idx) * 4, 4);
        return v;
      }
      case 2: {
        std::uint16_t v;
        std::memcpy(&v, raw.data() + std::size_t(idx) * 2, 2);
        return static_cast<float>(v);
      }
      case 1: {
        std::uint8_t v;
        std::memcpy(&v, raw.data() + idx, 1);
        return static_cast<float>(v);
      }
      default:
        panic("unsupported attribute size %u", attr_bytes);
    }
}

namespace detail
{

/** Store one element's code at `dst`: fp32 as is, quantized sizes as
 *  their integer value. The one definition of the storage format. */
template <std::uint32_t Bytes>
inline void
storeAttr(std::byte *dst, float value)
{
    if constexpr (Bytes == 4) {
        std::memcpy(dst, &value, 4);
    } else if constexpr (Bytes == 2) {
        auto v = static_cast<std::uint16_t>(value);
        std::memcpy(dst, &v, 2);
    } else {
        static_assert(Bytes == 1, "unsupported attribute size");
        auto v = static_cast<std::uint8_t>(value);
        std::memcpy(dst, &v, 1);
    }
}

}  // namespace detail

/** Encode one element at byte position `idx * attr_bytes`. */
inline void
encodeAttr(std::span<std::byte> raw, std::uint32_t idx,
           std::uint32_t attr_bytes, float value)
{
    std::byte *dst = raw.data() + std::size_t(idx) * attr_bytes;
    switch (attr_bytes) {
      case 4:
        return detail::storeAttr<4>(dst, value);
      case 2:
        return detail::storeAttr<2>(dst, value);
      case 1:
        return detail::storeAttr<1>(dst, value);
      default:
        panic("unsupported attribute size %u", attr_bytes);
    }
}

/**
 * Encode elements 0..count-1, element `e` being `value_of(e)`, as
 * encodeAttr would one at a time; the size switch runs once, not per
 * element.
 */
template <typename ValueFn>
inline void
encodeAttrs(std::span<std::byte> raw, std::uint32_t count,
            std::uint32_t attr_bytes, const ValueFn &value_of)
{
    switch (attr_bytes) {
      case 4:
        for (std::uint32_t e = 0; e < count; ++e)
            detail::storeAttr<4>(raw.data() + std::size_t(e) * 4,
                                 value_of(e));
        return;
      case 2:
        for (std::uint32_t e = 0; e < count; ++e)
            detail::storeAttr<2>(raw.data() + std::size_t(e) * 2,
                                 value_of(e));
        return;
      case 1:
        for (std::uint32_t e = 0; e < count; ++e)
            detail::storeAttr<1>(raw.data() + e, value_of(e));
        return;
      default:
        panic("unsupported attribute size %u", attr_bytes);
    }
}

}  // namespace recssd

#endif  // RECSSD_NDP_ATTR_CODEC_H
