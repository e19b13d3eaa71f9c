/**
 * @file
 * Structure-of-arrays storage for per-node mutable state.
 *
 * A NodeShard holds the state of every node of one chain in parallel
 * contiguous arrays indexed by row.  The Node class is a thin facade
 * over one row (see node.hh): all of its slot-mutable state — the
 * capacitor, RTC, sensor, NV buffer, radio, slot-lifecycle scalars,
 * memoized per-slot costs, the pending-package age queue, and the
 * statistics block — lives here, so a chain's slot step walks flat
 * arrays instead of chasing one heap object graph per node.  This is
 * what lets the fleet-scale path (bench/fleet_bench) stream a million
 * nodes at cache speed.
 *
 * Layout (one row per node, arrays grouped by access pattern):
 *
 *     capStoredJ[] capChargedJ[] ... rtcSync[]         energy columns
 *     sensor[]  buffer[]  rf[]                         component rows
 *     lastAccrual[] slotStart[] slotLength[] ...       slot scalars
 *     slotCostsValid[] slotTaskCost[] slotTaskTime[]   per-slot memos
 *     pendingPackages[] pendingOffset[] pendingDepth[] queue headers
 *     pendingAge[]  (flat, rows at [offset, offset+depth))
 *     stats[]                                          cold counters
 *
 * The capacitor / RTC / direct-budget state that the slot-boundary
 * banking touches every slot is stored as plain columns (joules, plus
 * the RTC's sync flag byte and desync count), not as embedded
 * SuperCapacitor/Rtc objects: the banking reads and writes one row of
 * those cells through CapacitorView/RtcView, the same arithmetic a
 * standalone SuperCapacitor/Rtc runs on its own members.
 *
 * Rows are append-only: addRow() returns the new row index, and
 * reserveRows() pre-sizes every array so construction of a whole chain
 * performs one allocation per array instead of reallocating per node.
 * The pending-package age ring is flattened into one shared array and
 * sized at construction from the row's freshness deadline, so the slot
 * loop never grows it (the pre-refactor Node lazily allocated it in
 * the first beginSlot).
 *
 * A shard is single-threaded by construction: it is owned by one
 * ChainEngine (or by one standalone Node) and only that owner's thread
 * touches it, preserving the chain-parallel determinism model.
 */

#ifndef NEOFOG_NODE_NODE_SOA_HH
#define NEOFOG_NODE_NODE_SOA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "energy/capacitor.hh"
#include "hw/nv_buffer.hh"
#include "hw/rf.hh"
#include "hw/rtc.hh"
#include "hw/sensor.hh"
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
    TimeSeries storedEnergyMj; ///< capacitor level over time (mJ)

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
        ar.io("stored_energy_mj", storedEnergyMj);
        ar.io("harvested_total", harvestedTotal);
        ar.io("spent_compute", spentCompute);
        ar.io("spent_tx", spentTx);
        ar.io("spent_rx", spentRx);
        ar.io("spent_sample", spentSample);
        ar.io("spent_wake", spentWake);
    }
};

/**
 * Contiguous per-node state for one chain, one row per node.
 */
class NodeShard
{
  public:
    NodeShard() = default;
    NodeShard(const NodeShard &) = delete;
    NodeShard &operator=(const NodeShard &) = delete;

    /**
     * Pre-size every array for @p row_count rows whose pending queues
     * are @p pending_depth deep, so addRow() never reallocates.
     */
    void reserveRows(std::size_t row_count, std::size_t pending_depth);

    /**
     * Append one row, default-initializing its slot scalars.
     * @param cap Main capacitor configuration.
     * @param rtc RTC configuration (dedicated cap inside).
     * @param sensor Sensor part attached to this node.
     * @param buffer NV buffer configuration.
     * @param pending_depth Freshness-deadline depth of the pending
     *        queue (>= 1; the flat pendingAge window for this row).
     * @param rf The node's radio (owned by the shard from now on).
     * @return The new row index.
     */
    std::uint32_t addRow(const SuperCapacitor::Config &cap,
                         const Rtc::Config &rtc,
                         const SensorSpec &sensor,
                         const NvBuffer::Config &buffer,
                         std::size_t pending_depth,
                         std::unique_ptr<RfModule> rf);

    /** Rows currently in the shard. */
    std::size_t rows() const { return stats.size(); }

    /**
     * Bytes resident in the shard's arrays (capacity-based, including
     * the per-row radio objects and the stats series points).  The
     * fleet bench divides this by rows() for its bytes_per_node key.
     */
    std::size_t residentBytes() const;

    // ---- energy-state columns (joules; see the header comment) ----
    std::vector<double> capStoredJ;
    std::vector<double> capChargedJ;
    std::vector<double> capOverflowJ;
    std::vector<double> capLeakedJ;
    std::vector<double> capDischargedJ;
    std::vector<double> rtcStoredJ;
    std::vector<double> rtcChargedJ;
    std::vector<double> rtcOverflowJ;
    std::vector<double> rtcLeakedJ;
    std::vector<double> rtcDischargedJ;
    std::vector<std::uint8_t> rtcSync;     ///< 1 synchronized, 0 not
    std::vector<std::uint64_t> rtcDesyncs; ///< times sync was lost
    std::vector<double> directBudgetJ; ///< FIOS direct-channel budget

    // ---- component rows --------------------------------------------
    std::vector<Sensor> sensor;
    std::vector<NvBuffer> buffer;
    std::vector<std::unique_ptr<RfModule>> rf;

    // ---- slot-lifecycle scalars ------------------------------------
    std::vector<Tick> lastAccrual;
    std::vector<Tick> slotStart;
    std::vector<Tick> slotLength;
    std::vector<Tick> slotTimeUsed;
    std::vector<Power> lastIncome;
    std::vector<std::uint8_t> awake;
    std::vector<std::uint8_t> rfInitializedThisSlot;

    // ---- per-slot cost memos (mutable semantics: refreshed from
    //      const facade methods, see Node::refreshSlotCosts) ---------
    std::vector<std::uint8_t> slotCostsValid;
    std::vector<Energy> slotTaskCost;
    std::vector<Tick> slotTaskTime;

    // ---- pending-package queues ------------------------------------
    std::vector<int> pendingPackages;
    /** Row's window into pendingAge: [offset, offset + depth). */
    std::vector<std::uint32_t> pendingOffset;
    std::vector<std::uint32_t> pendingDepth;
    /** Flat age rings, index 0 of a window = sampled this slot. */
    std::vector<int> pendingAge;

    // ---- cold counters ---------------------------------------------
    std::vector<NodeStats> stats;
};

} // namespace neofog

#endif // NEOFOG_NODE_NODE_SOA_HH
