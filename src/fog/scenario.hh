/**
 * @file
 * Scenario configuration for system-level NEOFog experiments.
 *
 * A scenario fixes: deployment (nodes, chains, multiplexing), the
 * ambient-power regime (trace kind, mean income), the node operating
 * mode, and the balancing policy.  The figure-specific presets live in
 * fog/presets.hh.
 */

#ifndef NEOFOG_FOG_SCENARIO_HH
#define NEOFOG_FOG_SCENARIO_HH

#include <cstdint>
#include <string>

#include "net/loss.hh"
#include "node/node.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/** Which synthetic power-trace family drives the nodes. */
enum class TraceKind
{
    ForestIndependent, ///< Fig 10: large independent variance
    BridgeDependent,   ///< Fig 11: shared day profile, 30% node variance
    MountainSunny,     ///< Fig 12: high power, large variance
    RainLow,           ///< Fig 13: very low power, dependent
    Constant,          ///< testing
};

/** Display name of a trace kind. */
std::string traceKindName(TraceKind kind);

/**
 * Full description of one system-level run.
 */
struct ScenarioConfig
{
    /** Logical chain length (the paper presents 10-node chains). */
    std::size_t nodesPerChain = 10;
    /** Number of independent chains simulated (results aggregate). */
    std::size_t chains = 1;
    /** NVD4Q multiplexing: physical clones per logical node. */
    int multiplexing = 1;

    Tick horizon = 5 * kHour;
    Tick slotInterval = 12 * kSec;

    TraceKind traceKind = TraceKind::ForestIndependent;
    /** Day profile index for dependent traces (0-4). */
    int profileIndex = 0;
    /** Mean ambient income per node. */
    Power meanIncome = Power::fromMilliwatts(2.2);

    OperatingMode mode = OperatingMode::FiosNvMote;
    /**
     * Offloading-policy spec, `policy` or `policy:key=val,...`
     * (see balance/policy_registry.hh; `neofog_cli --list-balancers`
     * prints the registered policies and their parameters).
     * FogSystem canonicalizes this field on construction — name plus
     * non-default parameters only — and the canonical spec is part of
     * the snapshot config fingerprint.
     */
    std::string balancerPolicy = "none";

    LossModel::Config loss{};
    Node::Config nodeTemplate{};

    /**
     * NVD4Q membership-update interval (Algorithm 2): clone groups
     * rotate their phase assignment this often, and the newly active
     * clone re-syncs its NVRF state (a bridge monitor would keep this
     * at 0 = never; a mountain-slide monitor updates at low frequency;
     * moving-object networks update often).
     */
    Tick membershipUpdateInterval = 0;

    /**
     * Real-time requests (§5.1): per logical node per slot, the
     * probability that the control node demands the current sample
     * immediately — the node must ship it raw, bypassing buffering
     * and fog processing.  Served/missed counts are a QoS metric.
     */
    double realTimeRequestChance = 0.0;

    /**
     * Hop-by-hop relay mode: instead of the paper's MAC-abstracted
     * direct delivery, every data packet is relayed along the chain to
     * the sink (logical node 0), charging RX+TX at each intermediate
     * hop and applying the loss model per hop.  Exposes the classic
     * WSN funnel effect near the sink.  Off by default (the paper
     * "mimics communication by direct data transmission").
     */
    bool hopByHopRelay = false;

    /**
     * Prefix-sum energy-trace cache (see energy/trace_cache.hh): the
     * scenario-wide rain front is built once per FogSystem and wrapped
     * in a CumulativeTrace on this grid, so every node answers its
     * slot-window integrals from one immutable O(1) table.
     */
    struct EnergyCacheConfig
    {
        /** Canonical grid cell width; whole-second slots align to it. */
        static constexpr Tick grid = kSec;
    };
    static constexpr EnergyCacheConfig energyCache{};

    std::uint64_t seed = 1;

    /**
     * Checkpointing (see src/snapshot/): write a full-state snapshot
     * every N slots into `dir`.  0 disables.  Like `threads`, this is
     * host-local operational configuration: it is excluded from the
     * scenario fingerprint, may be changed on resume, and writing
     * snapshots never perturbs simulation results.
     */
    struct SnapshotConfig
    {
        std::int64_t everySlots = 0;
        std::string dir = ".";
    };
    SnapshotConfig snapshot{};

    /**
     * Worker threads for the chain loop: the chains of each window
     * (each running every slot of it) run concurrently on this many
     * threads (0 = all hardware threads).
     * Results are bit-identical for any value — every chain draws from
     * its own pre-forked RNG stream and shards merge in chain order
     * (see DESIGN.md, "Threading and determinism model").
     */
    unsigned threads = 1;

    /** Ideal package count: logical nodes x chains x slots. */
    std::uint64_t idealPackages() const;
    /** Slots in the horizon. */
    std::int64_t slotCount() const;
    /**
     * The config every node of the scenario shares: the node template
     * in the scenario's mode, its RTC on the slot grid.
     */
    Node::Config nodeConfig() const;
};

} // namespace neofog

#endif // NEOFOG_FOG_SCENARIO_HH
