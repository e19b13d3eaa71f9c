/**
 * @file
 * The archived state of a node, and the per-chain store of it.
 *
 * A NodeState is exactly what a snapshot keeps of one node: the
 * capacitor, RTC and NV buffer state, the sensor's configuration
 * latch, the slot-lifecycle scalars, the per-slot cost memos, the
 * pending-package age queue and the statistics.  Everything else a
 * Node uses — its system's Node::Spec (config, processor, radio, front
 * end, phase prices), power trace, observer, trace cursor — is
 * rebuilt from the scenario, so a resume reconstructs the Node and
 * overwrites only its NodeState.  NodeState::serialize is therefore
 * the one place a snapshot's node records land, and it rejects states
 * no run can produce (FogSystem::restore, which also has the spec,
 * checks the buffer against its capacity).  It holds no random stream
 * (its chain's feeds every draw) and no capacitor history (see
 * StoredEnergyLog).
 *
 * A NodeShard holds the NodeStates of one chain in one vector,
 * reserved for the whole chain up front: each chain Node keeps a
 * pointer to its own element.  A shard is single-threaded by
 * construction — one ChainEngine owns it and only that engine's thread
 * touches it, preserving the chain-parallel determinism model.
 */

#ifndef NEOFOG_NODE_NODE_STATE_HH
#define NEOFOG_NODE_NODE_STATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "energy/capacitor.hh"
#include "hw/nv_buffer.hh"
#include "hw/rf.hh"
#include "hw/rtc.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/** Cumulative per-node statistics. */
struct NodeStats
{
    Counter wakeups;          ///< slots the node woke
    Counter depletionFailures; ///< slots the node could not wake
    Counter packagesSampled;  ///< raw packages captured
    Counter packagesToCloud;  ///< raw packages transmitted (cloud work)
    Counter packagesInFog;    ///< packages fog-processed then shipped
    Counter tasksExecuted;    ///< fog tasks run (own + received)
    Counter incidentalTasks;  ///< reduced-fidelity summaries run
    Counter tasksReceived;    ///< tasks accepted from neighbours
    Counter tasksShipped;     ///< tasks sent to neighbours
    Counter txFailures;       ///< packets lost after all retries
    Counter samplesDiscarded; ///< buffer data dropped for lack of energy
    Counter rtcResyncs;       ///< RTC resynchronizations paid

    Energy harvestedTotal;    ///< ambient energy seen
    Energy spentCompute;
    Energy spentTx;
    Energy spentRx;
    Energy spentSample;
    Energy spentWake;

    /** Snapshot support (see src/snapshot/): every field above. */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("wakeups", wakeups);
        ar.io("depletion_failures", depletionFailures);
        ar.io("packages_sampled", packagesSampled);
        ar.io("packages_to_cloud", packagesToCloud);
        ar.io("packages_in_fog", packagesInFog);
        ar.io("tasks_executed", tasksExecuted);
        ar.io("incidental_tasks", incidentalTasks);
        ar.io("tasks_received", tasksReceived);
        ar.io("tasks_shipped", tasksShipped);
        ar.io("tx_failures", txFailures);
        ar.io("samples_discarded", samplesDiscarded);
        ar.io("rtc_resyncs", rtcResyncs);
        std::vector<TimeSeries::Point> none; // see NodeState::serialize
        ar.io("stored_energy_mj.points", none);
        ar.io("harvested_total", harvestedTotal);
        ar.io("spent_compute", spentCompute);
        ar.io("spent_tx", spentTx);
        ar.io("spent_rx", spentRx);
        ar.io("spent_sample", spentSample);
        ar.io("spent_wake", spentWake);
    }
};

/**
 * Everything about one node that mutates after construction.
 */
struct NodeState
{
    /**
     * A fresh node: capacitor and RTC in the given initial states,
     * everything else zero.
     * @param cap_start, rtc_start SuperCapacitor::initialState and
     *        Rtc::initialState of the node's configs, which check them
     *        (a system checks its configs once; see Node::freshState).
     * @param pending_depth Freshness-deadline depth of the pending
     *        queue (>= 1).
     * @param nvrf Whether the node's radio is an NVRF.
     */
    NodeState(const SuperCapacitor::State &cap_start,
              const Rtc::State &rtc_start, std::size_t pending_depth,
              bool nvrf);

    SuperCapacitor::State cap;
    Rtc::State rtc;
    NvBuffer::State buffer;

    Tick lastAccrual = 0;  ///< end of the window income accrued up to
    Tick slotStart = 0;
    Tick slotLength = 0;
    Tick slotTimeUsed = 0;
    Energy directBudget;   ///< FIOS direct-channel budget
    Power lastIncome;      ///< income averaged over the last slot
    Energy slotTaskCost;   ///< memo of Node::taskCost()
    Tick slotTaskTime = 0; ///< memo of Node::taskComputeTime()
    int pendingPackages = 0;
    /**
     * Whether the sensor's volatile configuration registers hold since
     * the last power failure (the spec is Node::Config::sensor).
     */
    bool sensorInitialized = false;
    /** Radio kind, which picks the records serialize writes. */
    bool nvrf = false;
    bool awake = false;
    bool rfInitializedThisSlot = false;
    /** Whether slotTaskCost/slotTaskTime match lastIncome. */
    bool slotCostsValid = false;
    /** Pending packages by age in slots; [0] = sampled this slot. */
    std::vector<int> pendingByAge;

    NodeStats stats;

    /**
     * Snapshot support (see src/snapshot/).  No run changes a node's
     * radio, so its records are constants: the default RfState, and an
     * NVRF's configured latch.  Loading rejects any other radio value,
     * a queue depth other than the configured one, and age counts that
     * are negative or do not sum to pendingPackages.  Older files hold
     * a node stream in rng and a history in stored_energy_mj.points;
     * neither is restart state, so a load discards them, and a save
     * writes a default Rng and none.
     */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        Rng stream;
        ar.io("rng", stream);
        ar.io("cap", cap);
        ar.io("rtc", rtc);
        ar.io("sensor.initialized", sensorInitialized);
        ar.io("buffer", buffer);
        RfState radio;
        ar.io("rf_state", radio);
        bool configured = true;
        if (nvrf)
            ar.io("nvrf.configured", configured);
        if constexpr (Archive::isLoading)
            checkRadio(ar.path(""), radio, configured);
        ar.io("last_accrual", lastAccrual);
        ar.io("slot_start", slotStart);
        ar.io("slot_length", slotLength);
        ar.io("slot_time_used", slotTimeUsed);
        ar.io("direct_budget", directBudget);
        ar.io("last_income", lastIncome);
        ar.io("awake", awake);
        ar.io("rf_initialized_this_slot", rfInitializedThisSlot);
        ar.io("slot_costs_valid", slotCostsValid);
        ar.io("slot_task_cost", slotTaskCost);
        ar.io("slot_task_time", slotTaskTime);
        ar.io("pending_packages", pendingPackages);
        const std::size_t depth = pendingByAge.size();
        ar.io("pending_by_age", pendingByAge);
        if constexpr (Archive::isLoading)
            checkPendingQueue(ar.path("pending_by_age"), depth);
        ar.io("stats", stats);
    }

  private:
    /**
     * Fatal unless the radio records loaded under the @p node prefix
     * (such as "chain0.node1.") hold the default @p radio and a true
     * @p configured.
     */
    static void checkRadio(const std::string &node, const RfState &radio,
                           bool configured);

    /**
     * Fatal unless the loaded age queue has @p depth entries, none
     * negative, summing to pendingPackages.  @p path names the record.
     */
    void checkPendingQueue(const std::string &path,
                           std::size_t depth) const;
};

/**
 * The NodeStates of one chain, in physical-node order.
 */
class NodeShard
{
  public:
    /** Make room for @p rows states; add() never reallocates past it. */
    void reserve(std::size_t rows) { _states.reserve(rows); }

    /**
     * Append @p state and return it.  Nodes keep pointers into the
     * shard, so appending beyond the reserved rows is fatal.
     */
    NodeState &add(NodeState state);

    /** States currently in the shard. */
    std::size_t rows() const { return _states.size(); }

    NodeState &operator[](std::size_t row) { return _states[row]; }
    const NodeState &operator[](std::size_t row) const
    { return _states[row]; }

    /**
     * Bytes resident in the shard (capacity-based, including each
     * node's age queue).  The fleet bench divides this by rows() for
     * its bytes_per_node key.
     */
    std::size_t residentBytes() const;

  private:
    std::vector<NodeState> _states;
};

} // namespace neofog

#endif // NEOFOG_NODE_NODE_STATE_HH
