/**
 * @file
 * Tests for the deterministic synthetic embedding values and the
 * flash page generator built from them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/embedding/synthetic_values.h"
#include "src/ndp/attr_codec.h"

namespace recssd
{
namespace
{

EmbeddingTableDesc
desc(std::uint32_t dim, std::uint32_t attr, std::uint32_t rows_per_page)
{
    EmbeddingTableDesc d;
    d.id = 9;
    d.rows = 10'000;
    d.dim = dim;
    d.attrBytes = attr;
    d.rowsPerPage = rows_per_page;
    return d;
}

TEST(SyntheticValues, DeterministicAndSmallIntegers)
{
    for (int rep = 0; rep < 2; ++rep) {
        float v = synthetic::value(1, 2, 3);
        EXPECT_EQ(v, synthetic::value(1, 2, 3));
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 16.0f);
        EXPECT_EQ(v, static_cast<float>(static_cast<int>(v)));
    }
}

TEST(SyntheticValues, DistinctCoordinatesDiffer)
{
    // Not all values can differ (range is [0,16)), but across a
    // window the sequences must not be constant.
    bool row_differs = false;
    bool table_differs = false;
    for (std::uint32_t i = 0; i < 32; ++i) {
        row_differs |= synthetic::value(0, 1, i) !=
                       synthetic::value(0, 2, i);
        table_differs |= synthetic::value(0, 1, i) !=
                         synthetic::value(1, 1, i);
    }
    EXPECT_TRUE(row_differs);
    EXPECT_TRUE(table_differs);
}

TEST(SyntheticValues, VectorOfMatchesScalar)
{
    auto d = desc(16, 4, 1);
    auto v = synthetic::vectorOf(d, 123);
    ASSERT_EQ(v.size(), 16u);
    for (std::uint32_t e = 0; e < 16; ++e)
        EXPECT_EQ(v[e], synthetic::value(d.id, 123, e));
}

TEST(SyntheticValues, FillVectorEncodesAttrSizes)
{
    for (std::uint32_t attr : {4u, 2u, 1u}) {
        auto d = desc(8, attr, 1);
        std::vector<std::byte> raw(d.vectorBytes());
        synthetic::fillVector(d, 55, raw);
        for (std::uint32_t e = 0; e < d.dim; ++e)
            EXPECT_EQ(decodeAttr(raw, e, attr),
                      synthetic::value(d.id, 55, e));
    }
}

TEST(SyntheticValues, ExpectedSlsSumsLists)
{
    auto d = desc(4, 4, 1);
    auto out = synthetic::expectedSls(d, {{1, 2}, {3}});
    ASSERT_EQ(out.size(), 8u);
    for (std::uint32_t e = 0; e < 4; ++e) {
        EXPECT_EQ(out[e], synthetic::value(d.id, 1, e) +
                              synthetic::value(d.id, 2, e));
        EXPECT_EQ(out[4 + e], synthetic::value(d.id, 3, e));
    }
}

TEST(SyntheticValues, GeneratorMatchesFillVectorUnpacked)
{
    auto d = desc(32, 4, 1);
    auto gen = synthetic::makeGenerator(d);
    std::vector<std::byte> from_gen(d.vectorBytes());
    gen(77, 0, from_gen);
    std::vector<std::byte> direct(d.vectorBytes());
    synthetic::fillVector(d, 77, direct);
    EXPECT_EQ(from_gen, direct);
}

TEST(SyntheticValues, GeneratorHandlesPackedPagesAndOffsets)
{
    auto d = desc(32, 4, 4);  // 4 vectors per page
    auto gen = synthetic::makeGenerator(d);
    // Row 9 = page 2, slot 1.
    std::vector<std::byte> out(d.vectorBytes());
    gen(2, 1 * d.vectorBytes(), out);
    std::vector<std::byte> direct(d.vectorBytes());
    synthetic::fillVector(d, 9, direct);
    EXPECT_EQ(out, direct);
}

TEST(SyntheticValues, GeneratorSpansSlotBoundaries)
{
    auto d = desc(8, 4, 4);  // 32B vectors
    auto gen = synthetic::makeGenerator(d);
    // Read 64 bytes covering slots 0 and 1 at once.
    std::vector<std::byte> wide(64);
    gen(0, 0, wide);
    std::vector<std::byte> s0(32);
    std::vector<std::byte> s1(32);
    synthetic::fillVector(d, 0, s0);
    synthetic::fillVector(d, 1, s1);
    EXPECT_EQ(std::vector<std::byte>(wide.begin(), wide.begin() + 32), s0);
    EXPECT_EQ(std::vector<std::byte>(wide.begin() + 32, wide.end()), s1);
}

TEST(SyntheticValues, GeneratorZeroFillsPastTableEnd)
{
    auto d = desc(8, 4, 4);
    d.rows = 6;  // last page (page 1) holds rows 4,5 then padding
    auto gen = synthetic::makeGenerator(d);
    std::vector<std::byte> out(d.vectorBytes());
    gen(1, 2 * d.vectorBytes(), out);  // slot for would-be row 6
    for (auto b : out)
        EXPECT_EQ(b, std::byte{0});
}

TEST(SyntheticValues, GeneratorZeroFillsPageTail)
{
    auto d = desc(8, 4, 1);  // one 32B vector; rest of page unused
    auto gen = synthetic::makeGenerator(d);
    std::vector<std::byte> out(64);
    gen(0, 32, out);  // starts right past the vector
    for (auto b : out)
        EXPECT_EQ(b, std::byte{0});
}

TEST(SyntheticValues, GeneratorMatchesFillVectorOnEveryUnalignedRange)
{
    // Every (offset, length) window of a page, including windows that
    // cut a vector mid-element, must equal the same bytes of the page
    // image built from whole fillVector rows (zeros past the last
    // slot and past the table end).
    for (std::uint32_t attr : {1u, 2u, 4u}) {
        auto d = desc(7, attr, 4);  // odd dim: vectors of 7/14/28 B
        d.rowBase = 100;
        d.rows = 4 * 3 + 2;  // page 3 holds two rows, then padding
        const std::size_t vec = d.vectorBytes();
        const std::size_t image_bytes = (d.rowsPerPage + 2) * vec;
        auto gen = synthetic::makeGenerator(d);
        for (std::uint64_t page : {0ull, 3ull}) {
            std::vector<std::byte> image(image_bytes, std::byte{0});
            for (std::uint32_t slot = 0; slot < d.rowsPerPage; ++slot) {
                RowId row = page * d.rowsPerPage + slot;
                if (row < d.rows)
                    synthetic::fillVector(
                        d, row, std::span(image).subspan(slot * vec, vec));
            }
            for (std::size_t off = 0; off < image_bytes; ++off) {
                for (std::size_t len = 1; off + len <= image_bytes;
                     ++len) {
                    std::vector<std::byte> out(len, std::byte{0xAA});
                    gen(page, off, out);
                    ASSERT_TRUE(std::equal(out.begin(), out.end(),
                                           image.begin() + off))
                        << "attr " << attr << " page " << page
                        << " offset " << off << " length " << len;
                }
            }
        }
    }
}

}  // namespace
}  // namespace recssd
