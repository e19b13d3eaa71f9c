/**
 * @file
 * Chain partitioning for the distributed coordinator/worker runtime.
 *
 * Chains are mutually independent (results aggregate; see DESIGN.md,
 * "Threading and determinism model"), so the partition is the whole
 * distribution story: worker w owns the contiguous global chain range
 * [w*C/W, (w+1)*C/W) — the same static split parallelForChunked uses
 * for threads — and simulates it over the full horizon.  Contiguity
 * matters twice: each worker's snapshot sections form one dense chain
 * interval (resumable in isolation), and the coordinator can merge
 * shards in global chain order by walking workers left to right.
 */

#ifndef NEOFOG_DIST_PARTITION_HH
#define NEOFOG_DIST_PARTITION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fog/scenario.hh"

namespace neofog::dist {

/** One worker's contiguous global chain range [lo, hi). */
struct ChainRange
{
    std::size_t lo = 0;
    std::size_t hi = 0;

    std::size_t size() const { return hi - lo; }
    bool contains(std::size_t chain) const
    { return chain >= lo && chain < hi; }
};

/**
 * Split @p chains into @p workers contiguous ranges, worker w getting
 * [w*chains/workers, (w+1)*chains/workers).  Ranges cover every chain
 * exactly once and differ in size by at most one.  Workers beyond the
 * chain count get empty ranges.
 */
std::vector<ChainRange> partitionChains(std::size_t chains,
                                        std::size_t workers);

/**
 * Sanitize a requested worker count the way ThreadPool sanitizes
 * thread counts: 0 means one worker per hardware thread, negative
 * values warn and clamp to 1, absurd values warn and clamp to
 * max(256, 2 x hardware threads).  The result is further capped at
 * @p chains (an empty partition buys nothing but fork overhead) with
 * a floor of 1.  Results never depend on the worker count.
 */
std::size_t clampWorkers(long long requested, std::size_t chains);

/**
 * The FNV-1a digest of the NVD4Q clone rotations a partition must
 * hold *after* running slots [0, slot): for each chain in
 * [range.lo, range.hi), the chain index (LE64) followed by the
 * chain's rotation (LE32).  Rotation is a pure function of the slot
 * grid (Algorithm 2 rotates every membership interval regardless of
 * energy state), so the coordinator computes the expectation from the
 * scenario alone and cross-checks every worker at every barrier —
 * the wire carries the inter-chain virtualization state, and this is
 * the proof it stayed in phase.
 */
std::uint64_t expectedRotationDigest(const ScenarioConfig &cfg,
                                     const ChainRange &range,
                                     std::int64_t slot);

/** Worker @p w's snapshot subdirectory under the coordinator's dir. */
std::string workerSnapshotDir(const std::string &base, std::size_t w);

} // namespace neofog::dist

#endif // NEOFOG_DIST_PARTITION_HH
