/**
 * @file
 * ChainEngine: one chain's worth of the system simulation.
 *
 * The paper's framework "starts thousands of node simulators at a
 * time" (§4); chains are mutually independent (results aggregate, no
 * cross-chain traffic), so each chain is an independently executable
 * unit.  A ChainEngine owns everything one chain touches during a
 * slot — its physical nodes, its NVD4Q clone rotation, heal/relay/
 * real-time logic, a private Rng stream forked from the scenario seed
 * in chain order, private LossModel state, a private LoadBalancer,
 * and a SystemReport shard.  What of that a snapshot keeps is one
 * ChainState; the rest is rebuilt from the scenario or is per-slot
 * scratch.  The scenario and the Node::Spec its nodes share belong to
 * the FogSystem and are read-only.  Because no two engines share
 * mutable state, FogSystem can run each engine through a whole window
 * of slots, the engines on any number of threads and in any
 * interleaving, and still produce bit-identical results (see
 * DESIGN.md, "Threading and determinism model").
 */

#ifndef NEOFOG_FOG_CHAIN_ENGINE_HH
#define NEOFOG_FOG_CHAIN_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "balance/balancer.hh"
#include "fog/scenario.hh"
#include "fog/system_report.hh"
#include "net/loss.hh"
#include "node/node.hh"
#include "sim/metrics.hh"
#include "sim/report_io.hh"

namespace neofog {

/**
 * Host-local time series of one chain, the chain-level counterpart of
 * a node's StoredEnergyLog: attached through FogSystem::setProbeLog,
 * it takes one sample at the end of every slot the chain runs from
 * then on.  Sampling reads chain-local state only and draws no
 * randomness, so a log never perturbs the simulation or its
 * thread-count determinism.  It is not restart state: a snapshot holds
 * none of it, and a resumed run's log covers the slots that process
 * ran.
 */
struct ChainProbeLog
{
    /** Four empty rings of @p capacity samples each. */
    explicit ChainProbeLog(std::size_t capacity = 4096);

    RingSeries storedEnergyMj;     ///< total stored energy, all nodes
    RingSeries yieldFrac;          ///< cumulative delivered / chain ideal
    RingSeries balancedTasks;      ///< cumulative balancer shipments
    RingSeries depletionFailures;  ///< cumulative failed wakes

    /**
     * The four rings for export, named for chain @p chain_index:
     * chain<i>.stored_mj (mJ), .yield (ratio), .balanced_tasks and
     * .depletion_failures.
     */
    std::vector<report_io::LabeledSeries>
    series(std::size_t chain_index) const;
};

/**
 * Everything about one chain that mutates after construction — what a
 * snapshot archives of it, in record order.
 */
struct ChainState
{
    /** A fresh chain: @p stream, clean loss accounting, no nodes yet. */
    explicit ChainState(Rng stream) : rng(stream) {}

    Rng rng;
    LossModel::State loss;
    /** Whether each logical position was alive last slot. */
    std::vector<bool> aliveLastSlot;
    /**
     * NVD4Q membership rotations so far (Algorithm 2 phase shift).
     * All clone groups of a chain rotate together, so one counter is
     * the whole clone schedule.
     */
    int rotation = 0;
    /** The chain's report shard. */
    SystemReport report;
    /** Physical nodes' states, in id order. */
    NodeShard nodes;

    /**
     * Snapshot support (see src/snapshot/).  The rotation is written
     * once per logical node, as group<i>.rotation.  Loading rejects an
     * alive_last_slot of another length than the chain's logical
     * nodes, and group records that disagree with group0.  Older
     * files hold probe rings under probe.*; a probe history is not
     * restart state, so a save writes them empty and a load drops
     * them.
     */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("rng", rng);
        ar.io("loss", loss);
        const std::size_t logical = aliveLastSlot.size();
        ar.io("alive_last_slot", aliveLastSlot);
        if constexpr (Archive::isLoading)
            checkAliveLength(ar.path("alive_last_slot"), logical);
        for (std::size_t i = 0; i < logical; ++i) {
            const std::string name =
                "group" + std::to_string(i) + ".rotation";
            std::int32_t r = rotation;
            ar.io(name, r);
            if constexpr (Archive::isLoading) {
                if (i == 0)
                    rotation = r;
                else if (r != rotation)
                    rejectRotation(ar.path(name), r);
            }
        }
        ar.io("shard", report);
        ar.pushScope("probe");
        for (const char *ring : {"stored_energy_mj", "yield_frac",
                                 "balanced_tasks", "depletion_failures"})
            ioEmptyRing(ar, ring);
        ar.popScope();
        for (std::size_t i = 0; i < nodes.rows(); ++i)
            ar.io("node" + std::to_string(i), nodes[i]);
    }

  private:
    /** The records of an empty probe ring, under @p scope. */
    template <class Archive>
    static void
    ioEmptyRing(Archive &ar, std::string_view scope)
    {
        std::vector<TimeSeries::Point> buf;
        std::uint64_t capacity = 0;
        std::uint64_t head = 0;
        std::uint64_t pushed = 0;
        ar.pushScope(scope);
        ar.io("buf", buf);
        ar.io("capacity", capacity);
        ar.io("head", head);
        ar.io("pushed", pushed);
        ar.popScope();
    }

    /** Fatal unless aliveLastSlot has @p logical entries. */
    void checkAliveLength(const std::string &path,
                          std::size_t logical) const;
    /** Fatal: record @p path holds @p r, not group0's rotation. */
    [[noreturn]] void rejectRotation(const std::string &path,
                                     std::int32_t r) const;
};

/**
 * Slot-by-slot model of one independent chain of an energy-harvesting
 * WSN.
 */
class ChainEngine
{
  public:
    /**
     * Build the chain's physical nodes: logical node l's clones are
     * physical nodes [l*mux, (l+1)*mux).
     *
     * @param cfg Scenario shared by all chains (must outlive this).
     * @param spec What every node of the scenario shares, built from
     *        cfg.nodeConfig() (must outlive this).
     * @param fresh Node::freshState(spec), checked once by the
     *        system; every node's row starts as a copy of it.
     * @param chain_index Position of this chain in the scenario.
     * @param first_node_id Global id of this chain's first physical
     *        node (ids stay contiguous across chains).
     * @param rng Private stream, pre-forked from the scenario root in
     *        chain order so results never depend on which thread runs
     *        which chain.
     * @param shared_trace The scenario's shared rain stream (see
     *        FogSystem::_sharedTrace); null for per-node trace kinds.
     */
    ChainEngine(const ScenarioConfig &cfg, const Node::Spec &spec,
                const NodeState &fresh, std::size_t chain_index,
                std::uint32_t first_node_id, Rng rng,
                std::shared_ptr<const PowerTrace> shared_trace);

    ChainEngine(const ChainEngine &) = delete;
    ChainEngine &operator=(const ChainEngine &) = delete;

    /** Execute one slot.  Touches only this engine's state. */
    void runSlot(std::int64_t slot_index);

    /** Fold the chain's node counters into the report shard. */
    void finalizeShard();

    /** This engine's report shard (valid after finalizeShard). */
    const SystemReport &shard() const { return _state.report; }

    std::size_t chainIndex() const { return _chainIndex; }

    /** Physical nodes, in id order. */
    const std::vector<std::unique_ptr<Node>> &nodes() const
    { return _nodes; }

    /** The chain's node states (memory accounting, diagnostics). */
    const NodeShard &soa() const { return _state.nodes; }

    const Node &node(std::size_t physical_idx) const;

    /** See FogSystem::setObserver. */
    void setObserver(std::size_t physical_idx, NodeObserver *observer)
    { _nodes.at(physical_idx)->setObserver(observer); }

    /** See FogSystem::setProbeLog. */
    void setProbeLog(ChainProbeLog *log) { _probeLog = log; }

    /**
     * Everything a snapshot archives of this chain.  The balancer, the
     * Node facades and the per-slot scratch are rebuilt by
     * constructing the engine, and the config, node spec and shared
     * trace are the system's, so a resume constructs it and then
     * overwrites this.
     */
    ChainState &state() { return _state; }
    const ChainState &state() const { return _state; }

  private:
    /** Build the trace for one physical node. */
    std::unique_ptr<PowerTrace> makeTrace();

    /**
     * The income hoist: batched beginSlot over the scheduled nodes of
     * a rain chain.  It integrates each distinct accrual window of the
     * shared stream once (per chain, per slot) and feeds every node
     * that integral times its scale through beginSlotWithIncome —
     * exactly what ScaledTrace::integrate computes, so the result is
     * bit-identical to calling node->beginSlot(t, slotInterval) per
     * node.  Called exactly when the chain holds _sharedTrace; every
     * other chain steps each node through beginSlot.
     */
    void beginSlotBatch(const std::vector<Node *> &scheduled, Tick t);

    /** Rotate the NVD4Q clone schedule at the configured frequency. */
    void updateMembership(std::int64_t slot_index);

    /** Heal the chain around dead nodes (orphan scan / rejoin). */
    void heal(const std::vector<Node *> &scheduled);

    /** Run the load-balancing round over the scheduled nodes. */
    void balance(std::vector<Node *> &scheduled);

    /** Serve a possible real-time request at this node. */
    void maybeServeRealTimeRequest(Node &node,
                                   const std::vector<Node *> &scheduled,
                                   std::size_t logical_idx);

    /** Execute tasks and transmit results for one node. */
    void executeAndTransmit(Node &node,
                            const std::vector<Node *> &scheduled,
                            std::size_t logical_idx);

    /**
     * Deliver @p frame from logical node @p src toward the sink:
     * direct (MAC-abstracted) by default, hop-by-hop when configured,
     * each awake relay paying the frame's listen window and one
     * transmission.  The sender has already paid its own transmission.
     * @return true if the packet reached the sink.
     */
    bool relayToSink(const std::vector<Node *> &scheduled,
                     std::size_t src, const Node::Spec::Frame &frame);

    /** Feed the probe log from this slot's chain-local state. */
    void sampleProbe(Tick now);

    const ScenarioConfig &_cfg;
    std::size_t _chainIndex;
    std::unique_ptr<LoadBalancer> _balancer;
    /** Cached `_balancer->name() == "none"` (checked every slot). */
    bool _balancerIsNoop = false;

    /**
     * Scenario-wide shared stream (see FogSystem::_sharedTrace); node
     * traces wrap it in a per-node ScaledTrace when set.  Read-only.
     */
    std::shared_ptr<const PowerTrace> _sharedTrace;

    /** What every node of the system shares (the FogSystem's). */
    const Node::Spec &_spec;

    /**
     * Must be declared before _nodes: the Node facades point into
     * its node shard and must be destroyed first.
     */
    ChainState _state;

    /** Physical nodes of this chain, in id order. */
    std::vector<std::unique_ptr<Node>> _nodes;

    /**
     * Per-slot scratch, kept as members so the hot loop reuses their
     * capacity instead of reallocating every slot.  Valid only within
     * one runSlot/balance invocation.
     */
    std::vector<Node *> _scheduled;
    std::vector<LbNodeState> _lbStates;
    LbOutcome _lbOutcome;

    /** One accrual window the income hoist integrated. */
    struct IncomeWindow
    {
        Tick from;
        Tick to;
        Energy unit; ///< shared-trace integral
    };
    /** Windows integrated this slot (scratch for beginSlotBatch). */
    std::vector<IncomeWindow> _windowMemo;

    /** Attached probe log (not owned), or null. */
    ChainProbeLog *_probeLog = nullptr;
};

} // namespace neofog

#endif // NEOFOG_FOG_CHAIN_ENGINE_HH
