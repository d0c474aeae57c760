#include "src/common/random.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace recssd
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    recssd_assert(bound > 0, "uniformInt bound must be positive");
    // Lemire's nearly-divisionless method.
    __uint128_t m = static_cast<__uint128_t>((*this)()) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t t = (0 - bound) % bound;
        while (l < t) {
            m = static_cast<__uint128_t>((*this)()) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t
Rng::uniformRange(std::uint64_t lo, std::uint64_t hi)
{
    recssd_assert(lo <= hi, "uniformRange requires lo <= hi");
    return lo + uniformInt(hi - lo + 1);
}

double
Rng::uniformDouble()
{
    // 53 random mantissa bits.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Rng::exponential(double mean)
{
    recssd_assert(mean > 0.0, "exponential mean must be positive");
    double u = uniformDouble();
    // Guard against log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

bool
Rng::bernoulli(double p)
{
    return uniformDouble() < p;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha)
    : n_(n), alpha_(alpha), cdf_(n)
{
    recssd_assert(n >= 1, "Zipf universe must be non-empty");
    recssd_assert(n <= std::numeric_limits<std::uint32_t>::max(),
                  "Zipf universe must fit 32 bits");
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n_; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha_);
        cdf_[i] = sum;
    }
    for (auto &v : cdf_)
        v /= sum;

    // cdf_ is non-decreasing and bucketOf is monotone, so the buckets
    // of successive CDF entries never go down; each rank claims the
    // buckets up to its own. cdf_.back() is exactly 1, whose bucket is
    // n_, so guide_[0..n_] all name a rank and guide_[n_ + 1] = n_.
    guide_.assign(n_ + 2, static_cast<std::uint32_t>(n_));
    std::size_t j = 0;
    for (std::uint64_t i = 0; i < n_; ++i) {
        for (std::size_t b = bucketOf(cdf_[i]); j <= b; ++j)
            guide_[j] = static_cast<std::uint32_t>(i);
    }
}

std::uint64_t
ZipfSampler::rankOf(double u) const
{
    // Let r be the first rank with cdf_[r] >= u. Every rank below
    // guide_[b] has a bucket below b = bucketOf(u), so its CDF is
    // below u; the rank guide_[b + 1] has a bucket above b, so its CDF
    // is above u. Both follow from bucketOf being monotone and shared
    // with the constructor, so rounding in u * n can move u to another
    // bucket but never outside [guide_[b], guide_[b + 1]]. Clamping b
    // to n_ keeps that true for u >= 1.
    std::size_t b = std::min<std::size_t>(bucketOf(u), n_);
    std::uint64_t lo = guide_[b];
    std::uint64_t hi = std::min<std::uint64_t>(guide_[b + 1], n_ - 1);
    while (lo < hi) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

double
ZipfSampler::pmf(std::uint64_t rank) const
{
    recssd_assert(rank < n_, "Zipf pmf rank out of range");
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

std::shared_ptr<const ZipfSampler>
ZipfSamplerPool::get(std::uint64_t n, double alpha)
{
    for (const auto &s : samplers_) {
        if (s->universe() == n && s->alpha() == alpha)
            return s;
    }
    samplers_.push_back(std::make_shared<const ZipfSampler>(n, alpha));
    return samplers_.back();
}

}  // namespace recssd
