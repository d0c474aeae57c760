/**
 * @file
 * Unit and statistical tests for the RNG and distribution samplers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/random.h"
#include "src/trace/trace_gen.h"

namespace recssd
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.uniformInt(bound), bound);
    }
}

TEST(Rng, UniformIntCoversSmallRange)
{
    Rng rng(7);
    bool seen[4] = {false, false, false, false};
    for (int i = 0; i < 200; ++i)
        seen[rng.uniformInt(4)] = true;
    EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(9);
    bool lo = false;
    bool hi = false;
    for (int i = 0; i < 500; ++i) {
        std::uint64_t v = rng.uniformRange(10, 12);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 12u);
        lo |= v == 10;
        hi |= v == 12;
    }
    EXPECT_TRUE(lo && hi);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.uniformDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(13);
    double sum = 0.0;
    constexpr int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(256.0);
    EXPECT_NEAR(sum / n, 256.0, 10.0);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(17);
    int hits = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler zipf(1000, 1.1);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < 1000; ++r)
        sum += zipf.pmf(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, HotterRanksMoreProbable)
{
    ZipfSampler zipf(10000, 1.0);
    EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
    EXPECT_GT(zipf.pmf(10), zipf.pmf(100));
}

TEST(Zipf, SamplesWithinUniverseAndSkewed)
{
    ZipfSampler zipf(1000, 1.2);
    Rng rng(19);
    std::uint64_t top10 = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        std::uint64_t v = zipf.sample(rng);
        ASSERT_LT(v, 1000u);
        top10 += v < 10 ? 1 : 0;
    }
    // For alpha=1.2, the top-10 ranks carry a large share of mass.
    EXPECT_GT(static_cast<double>(top10) / n, 0.4);
}

class ZipfAlphaTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfAlphaTest, EmpiricalTopRankFrequencyTracksPmf)
{
    double alpha = GetParam();
    ZipfSampler zipf(5000, alpha);
    Rng rng(23);
    constexpr int n = 40000;
    int rank0 = 0;
    for (int i = 0; i < n; ++i)
        rank0 += zipf.sample(rng) == 0 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(rank0) / n, zipf.pmf(0),
                0.02 + zipf.pmf(0) * 0.2);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaTest,
                         ::testing::Values(0.5, 0.8, 1.0, 1.2, 1.5));

/** The sampler's CDF, built exactly as ZipfSampler builds it. */
std::vector<double>
referenceCdf(std::uint64_t n, double alpha)
{
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[i] = sum;
    }
    for (auto &v : cdf)
        v /= sum;
    return cdf;
}

/** The full-range binary search ZipfSampler used before its guide
 *  table: the first rank whose CDF is >= u. */
std::uint64_t
referenceRank(const std::vector<double> &cdf, double u)
{
    std::uint64_t lo = 0;
    std::uint64_t hi = cdf.size() - 1;
    while (lo < hi) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        if (cdf[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

struct ZipfShape
{
    std::uint64_t n;
    double alpha;
};

class ZipfRankOfTest : public ::testing::TestWithParam<ZipfShape>
{
};

TEST_P(ZipfRankOfTest, MatchesFullRangeSearchEverywhere)
{
    const auto [n, alpha] = GetParam();
    ZipfSampler zipf(n, alpha);
    const std::vector<double> cdf = referenceCdf(n, alpha);
    ASSERT_EQ(zipf.pmf(0), cdf[0]) << "reference CDF differs";

    std::uint64_t mismatches = 0;
    double first_mismatch = 0.0;
    auto check = [&](double u) {
        if (zipf.rankOf(u) != referenceRank(cdf, u) && mismatches++ == 0)
            first_mismatch = u;
    };
    // Every CDF boundary and its neighbours on both sides, where an
    // off-by-one bucket would show.
    check(0.0);
    check(std::nextafter(1.0, 0.0));
    for (double c : cdf) {
        check(c);
        check(std::nextafter(c, 0.0));
        check(std::nextafter(c, 2.0));
    }
    // Random draws, exactly as sample() makes them.
    Rng rng(n * 31 + static_cast<std::uint64_t>(alpha * 100));
    Rng same = rng;
    for (int i = 0; i < 60'000; ++i) {
        double u = rng.uniformDouble();
        check(u);
        ASSERT_EQ(zipf.sample(same), zipf.rankOf(u));
    }
    EXPECT_EQ(mismatches, 0u) << "first at u=" << first_mismatch;
}

std::vector<ZipfShape>
rankOfShapes()
{
    std::vector<ZipfShape> out;
    for (std::uint64_t n : {1ull, 2ull, 3ull, 1000ull, 100'000ull}) {
        for (double alpha : {0.5, 1.05, 2.0, 3.0})
            out.push_back(ZipfShape{n, alpha});
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfRankOfTest, ::testing::ValuesIn(rankOfShapes()),
    [](const ::testing::TestParamInfo<ZipfShape> &info) {
        return "n" + std::to_string(info.param.n) + "_alpha" +
               std::to_string(static_cast<int>(info.param.alpha * 100));
    });

TEST(Zipf, PoolSharesOneSamplerPerShape)
{
    ZipfSamplerPool pool;
    auto a = pool.get(1000, 1.05);
    EXPECT_EQ(pool.get(1000, 1.05), a);
    EXPECT_NE(pool.get(1000, 0.8), a);
    EXPECT_NE(pool.get(2000, 1.05), a);
}

TEST(Zipf, GeneratorsSharingOneSamplerDrawPrivateStreams)
{
    // Two generators drawing from one pooled table, interleaved, each
    // produce exactly the stream of a generator with its own table.
    TraceSpec spec;
    spec.kind = TraceKind::Zipf;
    spec.universe = 5000;
    spec.zipfAlpha = 1.05;
    ZipfSamplerPool pool;
    TraceSpec other = spec;
    other.seed = spec.seed + 1;
    TraceGenerator shared_a(spec, &pool);
    TraceGenerator shared_b(other, &pool);
    TraceGenerator private_a(spec);
    TraceGenerator private_b(other);
    for (int i = 0; i < 20'000; ++i) {
        ASSERT_EQ(shared_a.next(), private_a.next()) << "draw " << i;
        ASSERT_EQ(shared_b.next(), private_b.next()) << "draw " << i;
    }
}

TEST(ZipfDeathTest, EmptyUniversePanics)
{
    EXPECT_DEATH(ZipfSampler(0, 1.0), "non-empty");
}

}  // namespace
}  // namespace recssd
