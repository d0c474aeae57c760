/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Everything in the code base draws randomness through `Rng` (a
 * xoshiro256** engine) so runs are exactly reproducible from a seed.
 * The header also provides the distribution samplers the trace
 * generators need: uniform, exponential, and Zipf.
 */

#ifndef RECSSD_COMMON_RANDOM_H
#define RECSSD_COMMON_RANDOM_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace recssd
{

/**
 * xoshiro256** pseudo random generator.
 *
 * Small, fast and high quality; satisfies the UniformRandomBitGenerator
 * concept so it can also back standard distributions if needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via splitmix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform integer in [0, bound) using Lemire's method. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double uniformDouble();

    /** Exponential variate with the given mean (mean = 1/lambda). */
    double exponential(double mean);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

  private:
    std::uint64_t state_[4];
};

/**
 * Zipf-distributed sampler over {0, ..., n-1} with exponent alpha.
 *
 * Inverse-CDF sampling: a draw is the first rank whose CDF is >= a
 * uniform u. A guide table narrows the binary search to the ranks
 * whose CDF bucket matches u's bucket, so a draw costs O(1) expected
 * probes instead of log2(n). The sampler is immutable once built; a
 * consumer that needs several samplers over the same (n, alpha) shares
 * one through `ZipfSamplerPool`. Rank 0 is the hottest element.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Universe size (must be >= 1 and fit 32 bits).
     * @param alpha Skew exponent; larger is more skewed.
     */
    ZipfSampler(std::uint64_t n, double alpha);

    /** Draw one rank in [0, n). */
    std::uint64_t
    sample(Rng &rng) const
    {
        return rankOf(rng.uniformDouble());
    }

    /** The first rank whose CDF is >= u, for u >= 0 (n - 1 when none
     *  is). */
    std::uint64_t rankOf(double u) const;

    /** Probability mass of a given rank. */
    double pmf(std::uint64_t rank) const;

    std::uint64_t universe() const { return n_; }
    double alpha() const { return alpha_; }

  private:
    /** Guide bucket of a probability. Construction and lookup use the
     *  same monotone function, which is what makes the guide exact. */
    std::size_t
    bucketOf(double p) const
    {
        return static_cast<std::size_t>(p * static_cast<double>(n_));
    }

    std::uint64_t n_;
    double alpha_;
    std::vector<double> cdf_;
    /** guide_[j]: first rank whose CDF bucket is >= j; n_ past the
     *  last bucket any CDF entry reaches. n_ + 2 entries. */
    std::vector<std::uint32_t> guide_;
};

/**
 * Zipf samplers by (n, alpha): each distinct pair is built once and
 * shared by every caller that asks for it. A pool belongs to one
 * consumer (a model runner's trace generators, one update stream) and
 * dies with it; there is deliberately no process-wide memo, so every
 * set-up pays for the tables it uses.
 */
class ZipfSamplerPool
{
  public:
    std::shared_ptr<const ZipfSampler> get(std::uint64_t n, double alpha);

  private:
    std::vector<std::shared_ptr<const ZipfSampler>> samplers_;
};

}  // namespace recssd

#endif  // RECSSD_COMMON_RANDOM_H
