/**
 * @file
 * FogSystem: the system-level WSN simulator.
 *
 * Mirrors the paper's two-level simulation framework (§4): node-level
 * behaviour is captured by the Node model (calibrated per-phase
 * latency/energy), and the system level "starts thousands of node
 * simulators at a time", drives them on the RTC slot grid, performs
 * intra-chain load balancing and inter-chain virtualization, and
 * mimics communication as direct transfers through virtual buffers
 * under a success probability.
 *
 * The per-chain simulation lives in ChainEngine; FogSystem is the
 * orchestrator: it forks one RNG stream per chain (in chain order),
 * steps the slot grid in windows, dispatches each window's chains
 * across a ThreadPool (each chain runs the whole window), and merges
 * the per-chain report shards in chain order so results are
 * bit-identical for any thread count.
 */

#ifndef NEOFOG_FOG_FOG_SYSTEM_HH
#define NEOFOG_FOG_FOG_SYSTEM_HH

#include <memory>
#include <vector>

#include "fog/chain_engine.hh"
#include "fog/scenario.hh"
#include "fog/system_report.hh"
#include "sim/thread_pool.hh"
#include "snapshot/snapshot.hh"

namespace neofog {

/**
 * One simulated deployment.
 */
class FogSystem
{
  public:
    explicit FogSystem(const ScenarioConfig &cfg);

    FogSystem(const FogSystem &) = delete;
    FogSystem &operator=(const FogSystem &) = delete;

    /**
     * Partition constructor (the distributed worker's entry point,
     * see src/dist/): build engines only for the contiguous global
     * chain range [chain_lo, chain_hi).  The RNG root still forks one
     * stream per *global* chain in chain order — the partition takes
     * its slice — and node ids stay globally contiguous, so chain c
     * behaves bit-identically whether it runs in a full system or in
     * any partition containing it.
     */
    FogSystem(const ScenarioConfig &cfg, std::size_t chain_lo,
              std::size_t chain_hi);

    /**
     * Reconstruct a system from a snapshot (see src/snapshot/): @p path
     * names either a snapshot file or a directory, which resolves to
     * its newest fully valid snapshot.  The scenario is rebuilt from
     * the snapshot's own config section; @p threads and @p snap
     * replace the host-local knobs (neither influences results).
     * run() on the returned system continues at the snapshot's slot
     * and produces a report bit-identical to the uninterrupted run.
     * Fatal on any corruption or config mismatch — a resume applies
     * completely or not at all.
     */
    static std::unique_ptr<FogSystem>
    resume(const std::string &path, unsigned threads = 1,
           ScenarioConfig::SnapshotConfig snap = {});

    /**
     * Partition resume: reconstruct the chain range [chain_lo,
     * chain_hi) from a *partition snapshot* (one whose chain sections
     * cover exactly that range; see the partition constructor and the
     * distributed worker loop).  The scenario is rebuilt from the
     * snapshot's config section; @p host supplies the host-local
     * knobs (threads, snapshot — neither influences results) and must
     * otherwise match the archived scenario fingerprint.
     * Fatal on any corruption, range, or config mismatch.
     */
    static std::unique_ptr<FogSystem>
    resumePartition(const std::string &path, const ScenarioConfig &host,
                    std::size_t chain_lo, std::size_t chain_hi);

    /**
     * Partition resume from a snapshot the caller already read and
     * validated (see snapshot::readLatestSnapshot), so the file is
     * not read twice; @p loaded.path names it in messages.
     */
    static std::unique_ptr<FogSystem>
    resumePartition(const snapshot::LoadedSnapshot &loaded,
                    const ScenarioConfig &host, std::size_t chain_lo,
                    std::size_t chain_hi);

    /**
     * Write a full-state checkpoint into the configured snapshot
     * directory.  @p slot is the first slot a resume will execute, so
     * the archived state is "after slots [0, slot)".  Chain shards
     * serialize in parallel (read-only, no RNG draws) and land in the
     * file in chain order, so the bytes are thread-count independent.
     */
    void saveSnapshot(std::int64_t slot);

    /** First slot run() will execute (0 unless resumed). */
    std::int64_t resumeSlot() const { return _resumeSlot; }

    /**
     * Run slots [resumeSlot(), slotCount) and return the aggregated
     * results, writing a checkpoint at every multiple of
     * snapshot.everySlots strictly inside that range.
     */
    SystemReport run();

    /**
     * Run slots [from, to) over this system's chain range, chain-major:
     * one pool dispatch, in which each chain runs every slot of the
     * window in order before its thread moves to the next chain.
     * Chains share no mutable state, so this gives the bits of a
     * slot-by-slot sweep.  run() steps the horizon through this loop
     * between checkpoints; it is also the distributed worker's
     * stepping primitive between coordinator barriers (the
     * coordinator drives barriers and checkpoints explicitly).
     * Leaves the report un-merged; see shardBlob().
     */
    void runWindow(std::int64_t from, std::int64_t to);

    /** Chain range this system simulates: [chainLo, chainHi). */
    std::size_t chainLo() const { return _chainLo; }
    std::size_t chainHi() const { return _chainHi; }

    /**
     * Fold node counters into every engine's report shard (idempotent
     * wrapper; finalizeShard itself must run exactly once per chain).
     * Workers call this after the horizon, before shipping shards.
     */
    void finalizeShards();

    /**
     * One chain's finalized report shard as an archive record stream
     * (scope "shard") — the payload of the wire SHARD message.
     * @p engine_idx indexes this system's engines (0-based within the
     * partition), not global chains.
     */
    std::string shardBlob(std::size_t engine_idx) const;

    /**
     * FNV-1a digest of the partition's NVD4Q clone rotations: per
     * chain, the global chain index (LE64) then the chain's rotation
     * (LE32).  Matches dist::expectedRotationDigest when the partition
     * is exactly on the slot grid — the distributed barrier check.
     */
    std::uint64_t rotationDigest() const;

    /** Per-(physical)-node access after run() for figure series. */
    const Node &node(std::size_t chain, std::size_t physical_idx) const;

    /**
     * Attach @p observer (not owned; nullptr detaches) to a physical
     * node of the @p chain-th chain this system runs (counted from
     * chainLo()) for the slots run() executes from here on, e.g. a
     * StoredEnergyLog.  The chain's thread calls it.
     */
    void setObserver(std::size_t chain, std::size_t physical_idx,
                     NodeObserver *observer);

    /**
     * Attach @p log (not owned; nullptr detaches) to the @p chain-th
     * chain this system runs (counted from chainLo()) for the slots
     * run() executes from here on: one sample at the end of each.
     * The chain's thread feeds it.
     */
    void setProbeLog(std::size_t chain, ChainProbeLog *log);

    /** Number of physical nodes per chain. */
    std::size_t physicalPerChain() const;

    const ScenarioConfig &config() const { return _cfg; }

    /** The per-chain engines, in chain order. */
    const std::vector<std::unique_ptr<ChainEngine>> &chains() const
    { return _engines; }

  private:
    /**
     * The resume core shared by resume() and resumePartition(): check
     * @p loaded's header against @p cfg, construct chains [chain_lo,
     * chain_hi) of @p cfg, then overwrite each chain's ChainState from
     * its section.
     */
    static std::unique_ptr<FogSystem>
    restore(const snapshot::LoadedSnapshot &loaded,
            const ScenarioConfig &cfg, std::size_t chain_lo,
            std::size_t chain_hi);

    ScenarioConfig _cfg;
    /**
     * What every node of the system shares, built once from
     * _cfg.nodeConfig(); the engines and their nodes point at it.
     */
    const Node::Spec _spec;

    /** Global chain range simulated here (full system: [0, chains)). */
    std::size_t _chainLo = 0;
    std::size_t _chainHi = 0;
    /** Whether finalizeShards() has already folded the counters. */
    bool _finalized = false;

    /**
     * Scenario-wide shared power stream (rain front), prefix-summed on
     * the energy-cache grid.  Immutable after the constructor, so
     * chains read it concurrently without synchronization.  Null for
     * per-node trace kinds.
     */
    std::shared_ptr<const PowerTrace> _sharedTrace;

    /** One engine per chain; no two share mutable state. */
    std::vector<std::unique_ptr<ChainEngine>> _engines;

    /** Worker pool that runs each window's chains (null when serial). */
    std::unique_ptr<ThreadPool> _pool;

    SystemReport _report;
    bool _ran = false;
    /** First slot run() executes; nonzero after resume(). */
    std::int64_t _resumeSlot = 0;
};

} // namespace neofog

#endif // NEOFOG_FOG_FOG_SYSTEM_HH
