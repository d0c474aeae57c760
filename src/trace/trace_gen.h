/**
 * @file
 * Synthetic embedding-index trace generation.
 *
 * Mirrors the paper's instrumented DLRM trace generator (§5): the
 * locality mode draws reuses from an exponential stack-distance
 * distribution over previously requested vectors, parameterized by K,
 * where K = 0, 1, 2 yields roughly 13%, 54%, 72% unique accesses.
 * Sequential, strided, uniform and Zipf patterns cover the
 * microbenchmarks (Fig 8) and the locality characterization
 * (Figs 3-4).
 */

#ifndef RECSSD_TRACE_TRACE_GEN_H
#define RECSSD_TRACE_TRACE_GEN_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"

namespace recssd
{

/** What pattern a trace generator produces. */
enum class TraceKind
{
    Sequential,  ///< consecutive ids (the paper's SEQ)
    Strided,     ///< each access lands on a fresh page (the paper's STR)
    Uniform,     ///< uniform random over the universe
    Zipf,        ///< power-law popularity
    LocalityK,   ///< exponential stack-distance reuse, parameter K
};

struct TraceSpec
{
    TraceKind kind = TraceKind::Uniform;
    /** Id universe (rows drawn from [0, universe)). */
    std::uint64_t universe = 1'000'000;
    /** Strided: id step between accesses. */
    std::uint64_t stride = 1;
    /** Zipf: skew exponent. */
    double zipfAlpha = 1.05;
    /** LocalityK: the paper's K knob. */
    double k = 1.0;
    /** LocalityK: mean of the exponential stack-distance draw. */
    double reuseStackMean = 256.0;
    /** LocalityK: universe cycled through for fresh ids. */
    std::uint64_t activeUniverse = 8192;
    /** RNG seed. */
    std::uint64_t seed = 1;
};

/**
 * Fraction of accesses expected to be unique for a given K,
 * anchored at the paper's calibration points (13%, 54%, 72% for
 * K = 0, 1, 2) with exponential interpolation in between.
 */
double uniqueFractionForK(double k);

class TraceGenerator
{
  public:
    /** @param zipfs Where a Zipf trace takes its sampler; generators
     *  given the same pool share one table per (universe, alpha).
     *  Without a pool the generator builds its own. */
    explicit TraceGenerator(const TraceSpec &spec,
                            ZipfSamplerPool *zipfs = nullptr);

    /** Next row id (standalone draws commit immediately). */
    RowId next();

    /**
     * Indices for one SLS op (batch x lookups). For the locality
     * mode, temporal reuse is generated *across requests, not
     * lookups* (§6.3): all draws of one sample reference only ids
     * from earlier samples, which are committed to the reuse stack
     * when the sample completes.
     */
    std::vector<std::vector<RowId>> nextBatch(std::size_t batch,
                                              std::size_t lookups);

    const TraceSpec &spec() const { return spec_; }

  private:
    RowId nextLocality();

    /** Push the current request's ids onto the reuse stack. */
    void commitRequest();

    TraceSpec spec_;
    Rng rng_;
    std::shared_ptr<const ZipfSampler> zipf_;
    std::uint64_t cursor_ = 0;
    double pNew_ = 1.0;
    bool inRequest_ = false;
    /** LRU stack of ids from committed requests (front = MRU). */
    std::vector<RowId> stack_;
    /** Ids drawn by the in-flight request, pending commit. */
    std::vector<RowId> pending_;
};

}  // namespace recssd

#endif  // RECSSD_TRACE_TRACE_GEN_H
