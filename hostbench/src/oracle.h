/**
 * @file
 * The workload's SLS-op stream, the backends the ladder drives, and
 * the DRAM oracle every SSD-backed result is checked against.
 */

#ifndef HOSTBENCH_ORACLE_H
#define HOSTBENCH_ORACLE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "hostbench/src/workloads.h"
#include "src/cache/host_embedding_cache.h"
#include "src/embedding/dram_backend.h"
#include "src/embedding/sls_backend.h"
#include "src/shard/sharded_backend.h"

namespace hostbench
{

/** SLS ops; `descs` owns the tables the ops point at. */
struct OpStream
{
    std::vector<recssd::EmbeddingTableDesc> descs;
    std::vector<recssd::SlsOp> ops;
};

/**
 * Draw the SLS ops a ModelRunner built with `options` over `model`
 * issues for `queries` queries of `batch` samples, on the tables
 * `descs` (its ssdTableDescs()), from fresh trace generators: the
 * runner's per-table seeds and its sub-batch split, one op per table
 * per sub-batch. The benchmark's tests check this against the rows a
 * runner actually looks up.
 */
OpStream buildOps(std::vector<recssd::EmbeddingTableDesc> descs,
                  const recssd::ModelConfig &model,
                  const recssd::RunnerOptions &options, unsigned batch,
                  unsigned queries);

/** SLS ops one query of `batch` samples issues over `tables` tables. */
unsigned opsPerQuery(const recssd::RunnerOptions &options, unsigned batch,
                     std::size_t tables);

/** Same length and bytes. */
bool bitEqual(const recssd::SlsResult &a, const recssd::SlsResult &b);

/** Launch `op` on `backend` and drain the queue; its result. */
recssd::SlsResult runToCompletion(recssd::System &sys,
                                  recssd::SlsBackend &backend,
                                  const recssd::SlsOp &op);

/**
 * Per-device backends of the workload's kind (NDP or baseline, the
 * baseline with the runner's host LRU cache when the workload has
 * one), plus the shard fan-out over them.
 */
struct Backends
{
    std::unique_ptr<recssd::HostEmbeddingCache> hostCache;
    std::vector<std::unique_ptr<recssd::SlsBackend>> devices;
    std::unique_ptr<recssd::ShardedSlsBackend> sharded;
};

Backends makeBackends(recssd::System &sys, const WorkloadSpec &spec);

/** What the oracle compared. */
struct OracleTally
{
    std::uint64_t checked = 0;     ///< SLS ops compared
    std::uint64_t mismatches = 0;  ///< ops with a wrong result
    /** Rows found holding an updated (not pristine) value. */
    std::uint64_t updatedRows = 0;
};

/**
 * Run `op` on `backend` and compare the result bit for bit with
 * DramSlsBackend::run on the same op. With `max_version` > 0, rows an
 * update stream may have written may hold their pristine value or any
 * updated version up to `max_version`: each row of a mismatching op is
 * then read alone, must hold one of those values, and the op must
 * equal the sum of what its rows hold.
 */
void checkOp(recssd::System &sys, recssd::SlsBackend &backend,
             const recssd::SlsOp &op, std::uint64_t max_version,
             OracleTally &tally);

/**
 * After a serve: check at least `min_ops` of the workload's SLS ops on
 * the served machine, through the runner's own backend (so a baseline
 * run goes through the serve's warm host cache) or, for a tenant mix,
 * through fresh backends over the tables the mix installed, with
 * `updates_applied` bounding the versions an updated row may hold.
 */
void checkServed(const WorkloadSpec &spec, std::uint64_t seed, Machine &m,
                 unsigned min_ops, std::uint64_t updates_applied,
                 OracleTally &tally);

}  // namespace hostbench

#endif  // HOSTBENCH_ORACLE_H
