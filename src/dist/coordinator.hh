/**
 * @file
 * The distributed coordinator: forks N worker processes, partitions
 * the chains across them, drives the slot-barrier schedule over the
 * neofog-wire-v1 protocol, survives worker deaths by respawn+resume,
 * and merges the per-chain report shards in global chain order.
 *
 * Determinism contract: runDistributed() returns a SystemReport
 * bit-identical (registry operator==) to FogSystem::run() on the same
 * scenario, for any worker count, any per-worker thread count, and
 * across any number of worker kills — chain c always runs on its own
 * pre-forked RNG stream over the full horizon, and the coordinator
 * folds the per-chain shards left-to-right exactly as the
 * single-process merge loop does (double addition is non-associative,
 * so per-partition pre-merging would break bit-identity; per-chain
 * shards on the wire are what make the merge order worker-count
 * independent).
 */

#ifndef NEOFOG_DIST_COORDINATOR_HH
#define NEOFOG_DIST_COORDINATOR_HH

#include <cstdint>
#include <string>

#include "fog/scenario.hh"
#include "fog/system_report.hh"

namespace neofog::dist {

/** Host-side options of one distributed run. */
struct DistOptions
{
    /** Requested worker processes (clamped; see clampWorkers). */
    long long workersRequested = 1;

    /**
     * Checkpoint cadence in slots (the slot-barrier grid): every
     * worker snapshots its partition at each multiple.  0 disables
     * checkpointing — the run has a single barrier at the horizon.
     */
    std::int64_t snapshotEvery = 0;

    /**
     * Base snapshot directory; worker w checkpoints into
     * "<dir>/worker<w>" (see workerSnapshotDir).
     */
    std::string snapshotDir = ".";

    /**
     * Start workers in resume mode: each continues from the newest
     * valid snapshot in its directory (fresh start when none exists).
     * resumeDistributed() sets this; fresh runs leave it false.
     */
    bool resume = false;

    /**
     * Respawn budget across the whole run: a worker death beyond this
     * many respawns is fatal (a persistently crashing partition would
     * otherwise loop forever).
     */
    int maxRespawns = 8;
};

/** Outcome of a distributed run. */
struct DistResult
{
    SystemReport report;
    /** The scenario actually run (canonicalized balancer spec). */
    ScenarioConfig config;
    /** Worker processes used (after clamping). */
    std::size_t workers = 0;
    /** Worker deaths recovered by respawn + resume. */
    std::size_t respawns = 0;
};

/**
 * Run @p cfg to the horizon across forked worker processes.  The
 * calling process must be effectively single-threaded at the call
 * (fork duplicates only the calling thread); FogSystem thread pools
 * live only inside the workers.  Fatal on protocol corruption, config
 * mismatch, or an exhausted respawn budget.
 */
DistResult runDistributed(const ScenarioConfig &cfg,
                          const DistOptions &opt);

/**
 * Resume a distributed run from @p opt.snapshotDir (the base
 * directory of a previous runDistributed with checkpointing): the
 * scenario is rebuilt from worker 0's newest snapshot, the worker
 * count is rediscovered from the worker<k> subdirectories (and must
 * match opt.workersRequested unless that is 0), and each worker
 * continues from its own latest checkpoint.  @p host supplies the
 * host-local knobs (threads); everything else comes from
 * the archived scenario.
 */
DistResult resumeDistributed(const ScenarioConfig &host,
                             const DistOptions &opt);

} // namespace neofog::dist

#endif // NEOFOG_DIST_COORDINATOR_HH
