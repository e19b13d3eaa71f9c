/**
 * @file
 * A sensor node: energy store, processor, radio, sensor, NV buffer,
 * RTC, power trace, and the per-slot work sequence of its operating
 * mode.
 *
 * Three operating modes reproduce the paper's comparison (Fig 4):
 *
 *  - NosVp: normally-off volatile node.  Wakes when the capacitor
 *    holds enough for the whole burst, restarts the MCU, re-initializes
 *    the radio in software (531 ms), rebuilds the network connection,
 *    samples a decimated batch, and ships it raw (the cloud computes).
 *
 *  - NosNvp: normally-off NVP node.  Restores in 32 us, initializes
 *    the radio from integrated NVM (33 ms), samples a full-fidelity
 *    batch into the NV buffer, fog-processes and compresses it, and
 *    transmits the small result.  All energy still round-trips the
 *    capacitor (single-channel front end).
 *
 *  - FiosNvMote: the NEOFog NV-mote.  Dual-channel front end powers
 *    intermittent computation directly from the harvester at ~90%
 *    efficiency; the NVRF self-initializes in 1.2 ms and transmits
 *    with millisecond fixed costs; Spendthrift scales the effective
 *    compute energy with income.
 *
 * The node is slot-driven: the owning FogSystem calls beginSlot() at
 * every RTC boundary, then uses the work primitives (wake, sample,
 * executeTasks, transmit, receive) to run the scenario's protocol,
 * including load balancing and virtualization.
 *
 * Node is a facade over one NodeState (see node_state.hh and
 * DESIGN.md, "Memory layout: one NodeState per node"): every field
 * that mutates after construction lives there.  What all nodes of a
 * system share — config, processor, radio, front end, phase prices —
 * is one immutable Node::Spec.  The facade keeps its id, trace,
 * observer, the trace cursor scratch and pointers to its spec and
 * state.  A standalone Node (tests, single-node experiments) owns its
 * Spec and NodeState; chain nodes point at their FogSystem's spec and
 * into their ChainEngine's node shard.
 */

#ifndef NEOFOG_NODE_NODE_HH
#define NEOFOG_NODE_NODE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "energy/capacitor.hh"
#include "energy/frontend.hh"
#include "energy/power_trace.hh"
#include "hw/nv_buffer.hh"
#include "hw/processor.hh"
#include "hw/rf.hh"
#include "hw/rtc.hh"
#include "hw/sensor.hh"
#include "node/node_state.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/** Node operating paradigm (paper Fig 4). */
enum class OperatingMode
{
    NosVp,      ///< normally-off, volatile processor + software RF
    NosNvp,     ///< normally-off, NVP + NVM-assisted software RF
    FiosNvMote, ///< frequently-intermittently-on, NVP + NVRF + FIOS
};

/** Display name of an operating mode. */
std::string operatingModeName(OperatingMode mode);

/**
 * Observer hook for node activity: every paid phase is reported with
 * its tick, duration, and energy, and every slot start with the
 * stored energy.  Intended for debugging, timeline visualization,
 * figure series and tests that assert phase ordering; the system
 * simulator runs without one.
 */
class NodeObserver
{
  public:
    enum class Phase
    {
        Wake,
        Sample,
        Compute,
        IncidentalCompute,
        Transmit,
        Receive,
        Control,
    };

    virtual ~NodeObserver() = default;

    /**
     * One completed phase.
     * @param node_id The reporting node.
     * @param phase What happened.
     * @param start Tick the phase began.
     * @param duration Phase length.
     * @param energy Energy drawn (at the load).
     */
    virtual void onPhase(std::uint32_t node_id, Phase phase, Tick start,
                         Tick duration, Energy energy) = 0;

    /**
     * A slot began: the capacitor holds @p stored at @p slot_start,
     * after the slot's income was banked and before the node wakes.
     */
    virtual void onSlotBegin(std::uint32_t /*node_id*/,
                             Tick /*slot_start*/, Energy /*stored*/) {}
};

/**
 * One node's stored-energy curve: a (tick, mJ) point at the start of
 * every slot it runs.  Nodes keep no history; attach this to watch one.
 */
class StoredEnergyLog : public NodeObserver
{
  public:
    void onPhase(std::uint32_t, Phase, Tick, Tick, Energy) override {}
    void onSlotBegin(std::uint32_t, Tick slot_start, Energy stored) override
    { _series.record(slot_start, stored.millijoules()); }

    /** The points so far, in slot order. */
    const TimeSeries &series() const { return _series; }

  private:
    TimeSeries _series;
};

/** Display name of an observer phase. */
std::string phaseName(NodeObserver::Phase phase);

/** Slot-boundary energy classification (paper Fig 6a). */
enum class EnergyClass
{
    Dead,   ///< red: cannot even wake
    Awake,  ///< can wake but not complete sample+transmit
    Ready,  ///< yellow: enough to sample and transmit its own package
    Extra,  ///< green: energy beyond its own package's needs
};

/**
 * One sensor node.
 */
class Node
{
  public:
    struct Config
    {
        std::uint32_t id = 0;
        OperatingMode mode = OperatingMode::FiosNvMote;

        SuperCapacitor::Config cap{
            Energy::fromMillijoules(250.0),
            Energy::fromMillijoules(60.0),
            Power::fromMicrowatts(15.0),
        };
        Rtc::Config rtc{};
        SensorSpec sensor{};

        /** Processor clock (the paper's fabricated parts run 1 MHz;
         *  system experiments use faster NVPs — see DESIGN.md). */
        double processorMhz = 16.0;

        /** Raw bytes of one per-slot data package. */
        std::size_t rawPackageBytes = 128;
        /** Compressed size of a fog-processed package. */
        std::size_t compressedPackageBytes = 16;
        /** Sensor samples making up one package (full fidelity). */
        std::size_t samplesPerPackage = 64;
        /** Fog-task instructions to process one package locally. */
        std::uint64_t fogInstructionsPerPackage = 10'000'000;
        /** Light on-node instructions in NosVp mode. */
        std::uint64_t naiveInstructionsPerPackage = 20'000;

        /**
         * Freshness deadline: a sampled package must be fog-processed
         * within this many slots (the load-balance call interval /
         * MAXTIME of Algorithm 1) or it goes stale and is discarded.
         * Monitoring data loses its value quickly; the paper's nodes
         * transmit results "during the next power-on period".
         */
        int packageDeadlineSlots = 1;

        /**
         * Incidental computing (paper §5.1, citing [47]): when a node
         * lacks energy for the full fog task, it may run a reduced-
         * fidelity summary instead of discarding the sample.
         */
        bool enableIncidentalComputing = false;
        /** Fraction of the full task's instructions the summary uses. */
        double incidentalFraction = 0.15;

        /**
         * Apply Spendthrift's frequency scaling to compute *time* as
         * well as energy: at low income the NVP clocks down, so tasks
         * take proportionally longer wall-clock (the energy benefit is
         * always applied).  Off by default: the calibrated system
         * experiments model the resource-scaling benefit only.
         */
        bool enableFrequencyScaling = false;

        NvBuffer::Config buffer{};
    };

    /**
     * What the nodes of a system share, built once and never
     * changed: the config (whose id only a standalone node uses), the
     * front end, the processor and radio of its mode, and the prices
     * of every fixed-cost phase of the slot path.
     *
     * §4 prices each phase from fixed part constants, so a wake, a
     * sample or a fixed-size frame costs the same at every node in
     * every slot.  The spec computes each price once.  Only the fog
     * task's cost depends on the slot's income; Node memoizes it per
     * slot.
     */
    struct Spec
    {
        /** Fatal on a package or sensor shape no node can run, a
         *  processor clock that is not positive and finite, an
         *  incidental fraction outside [0, 1], or an NV buffer config
         *  no buffer can run or whose raw packages overflow an int. */
        explicit Spec(const Config &config);

        /**
         * A frame priced at both ends: its sender's transmission (a
         * control frame for the beacon and heal frames, one data
         * transmission attempt for packages) and the listen window of
         * the node that receives it.
         */
        struct Frame
        {
            RfPhase send;
            RfPhase listen;
        };

        Config cfg;
        FrontEnd frontend;
        Processor cpu;
        Radio rf;
        RfPhase rfInit;               ///< rf.initCost(), once per slot
        Energy wakeCost;              ///< Node::wakeCost()
        Tick wakeTime = 0;            ///< restore/restart + control code
        /** Node::sampleCost(): one package, sensor init included. */
        Energy sampleCost;
        Tick sampleTime = 0;          ///< its time, sensor init included
        Energy warmSampleCost;        ///< one package, sensor initialized
        Tick warmSampleTime = 0;      ///< its time
        int bufferPackages = 0;       ///< raw packages the NV buffer holds
        Tick txCompressedDuration = 0; ///< result-package tx airtime
        RfPhase beacon;               ///< balancer state share (control)
        Frame orphanScan;             ///< heal frames (net/mac.hh sizes)
        Frame scanConfirm;
        Frame devListEntry;
        Frame rawPackage;             ///< a raw package
        /** The mode's result: raw for NOS-VP, compressed otherwise. */
        Frame resultPackage;
        /** Instructions of one incidental task (incidentalFraction
         *  of a fog task) and their compute time. */
        std::uint64_t incidentalInstructions = 0;
        Tick incidentalTime = 0;
    };

    /**
     * Standalone node: builds and owns its Spec and NodeState.
     * @param cfg Node configuration.
     * @param trace Ambient power income (owned).
     */
    Node(const Config &cfg, std::unique_ptr<PowerTrace> trace);

    /**
     * Chain node @p id: points at @p spec and at @p state, its row of
     * its chain's NodeShard.  Both must outlive the node and stay in
     * place (the owning FogSystem declares its spec before its
     * engines, and a ChainEngine its shard before its nodes, reserved
     * for the full chain before the first row is added).
     */
    Node(const Spec &spec, std::uint32_t id,
         std::unique_ptr<PowerTrace> trace, NodeState &state);

    /**
     * The state every node of @p spec starts in: capacitor and RTC at
     * their configs' initial charges, everything else zero.  Fatal on
     * an invalid capacitor or RTC config, so a FogSystem calls it once
     * and copies the result into every row (a standalone node calls it
     * once for itself).
     */
    static NodeState freshState(const Spec &spec);

    std::uint32_t id() const { return _id; }

    /** The spec this node shares with its system (or owns). */
    const Spec &spec() const { return *_spec; }

    // ------------------------------------------------------------------
    // Slot lifecycle
    // ------------------------------------------------------------------

    /**
     * Advance to @p slot_start: integrate income since the last call,
     * bank it (charge path or direct budget), apply leakage, keep the
     * RTC alive.  Must be called with nondecreasing times.
     */
    void beginSlot(Tick slot_start, Tick slot_length);

    /**
     * beginSlot with the trace integrals supplied by the caller: the
     * income hoist (ChainEngine::beginSlotBatch) integrates each
     * accrual window once per chain and feeds every node of the chain
     * the shared closed-form integral.  @p gap_ambient must equal
     * trace().integrate(lastAccrualTime(), slot_start) (ignored when
     * there is no gap) and @p slot_ambient must equal
     * trace().integrate(slot_start, slot_start + slot_length); the
     * arithmetic after the integrals is identical to beginSlot, so
     * the two entry points are bit-identical.  Both end in the
     * observer's onSlotBegin.
     */
    void beginSlotWithIncome(Tick slot_start, Tick slot_length,
                             Energy gap_ambient, Energy slot_ambient);

    /** End of the window income has been integrated up to. */
    Tick lastAccrualTime() const { return _state->lastAccrual; }

    /** The ambient income trace driving this node. */
    const PowerTrace &trace() const { return *_trace; }

    /** Energy classification at the current slot boundary. */
    EnergyClass classify() const;

    /**
     * Attempt to wake for this slot: a node whose classify() would be
     * Dead stays asleep; otherwise it pays an RTC resync if needed and
     * the processor restore/restart plus control computing (the radio
     * initialization comes with the slot's first transmission).
     * Counts wakeups/depletion failures.
     * @return true if the node is now awake.
     */
    bool tryWake();

    /** Whether the node woke this slot. */
    bool awake() const { return _state->awake; }

    /**
     * Sample one package into the buffer (full fidelity, or decimated
     * for NosVp).  Requires the node to be awake.
     * @return true if the package was captured.
     */
    bool samplePackage();

    /**
     * Run up to @p count fog tasks (one task = fog-process one
     * package).  Bounded by remaining slot time and energy.  FIOS
     * nodes draw the direct-channel budget first.
     * @return Tasks completed.
     */
    int executeTasks(int count);

    /**
     * Run up to @p count *incidental* tasks: reduced-fidelity
     * summaries at incidentalFraction of the full task cost.  Only
     * available when enabled in the config.
     * @return Incidental tasks completed.
     */
    int executeIncidentalTasks(int count);

    /** Effective cost of one incidental task at current income. */
    Energy incidentalTaskCost() const;

    /** Whether one incidental task + result TX is affordable now. */
    bool canCompleteIncidental() const;

    /**
     * Pay for @p attempts transmissions of one data frame whose single
     * attempt costs @p one (a Spec price; @p attempts > 1 repeats it
     * for MAC retries), plus the radio initialization if this slot has
     * not paid it.
     * @return true if the energy and slot time were available (and
     *         were spent).
     */
    bool payTransmit(const RfPhase &one, int attempts = 1);

    /** Pay for the listen window @p window that receives a frame. */
    bool payListen(const RfPhase &window);

    /**
     * Pay for a short control frame @p frame (the balancer beacon, a
     * heal frame).  Control frames piggyback on the slot beacon
     * exchange: they cost airtime at TX power plus a small guard, but
     * not the full data-connection setup.
     */
    bool payControl(const RfPhase &frame);

    /** Pending packages the NV buffer can still absorb. */
    int pendingCapacity() const;

    // ------------------------------------------------------------------
    // Energy introspection (shared with the load balancer)
    // ------------------------------------------------------------------

    /** Stored energy right now. */
    Energy stored() const { return capView().stored(); }

    /** Capacitor fill fraction. */
    double fillFraction() const { return capView().fillFraction(); }

    /**
     * Cost to wake: processor restart/restore plus basic control
     * computing.  Radio initialization is paid lazily with the first
     * transmission of the slot (Fig 1: control & basic computing run
     * before the RF is touched).
     */
    Energy wakeCost() const;

    /**
     * Activation threshold: the stored energy below which the node
     * does not wake this slot.  A VP wakes whenever it can boot; NVP
     * modes use a higher threshold (wake + sample) so they only spin
     * up when they can at least bank a sample into the NV buffer —
     * the "higher activation threshold" of §5.2.1.
     */
    Energy activationCost() const;

    /** Cost to sample one package. */
    Energy sampleCost() const;

    /** Effective cost of one fog task at current income. */
    Energy taskCost() const;

    /**
     * Wall-clock time of one fog task at the current income
     * (includes the Spendthrift clock-down when enabled).
     */
    Tick taskComputeTime() const;

    /**
     * Cost to transmit one (mode-appropriate) package, including the
     * radio initialization if it has not been paid this slot.
     */
    Energy packageTxCost() const;

    /** Full own-package slot cost: wake + sample + compute + tx. */
    Energy slotCost() const;

    /**
     * Whether the node can afford (energy and slot time) to fog-process
     * one package AND transmit its result now.  Used to avoid wasting
     * compute energy on results that could never be shipped.
     */
    bool canCompleteOnePackage() const;

    /**
     * Spare capacity for the balancer, in tasks: how many *extra*
     * fog tasks this node could fund after its own slot work,
     * counting the unused direct budget.
     */
    double spareTaskCapacity() const;

    /** Relative task cost for the balancer (Spendthrift-scaled). */
    double relativeTaskCost() const;

    /** The RTC (for virtualization phase queries). */
    RtcView rtc() const { return rtcView(); }

    /** Mutable statistics. */
    NodeStats &stats() { return _state->stats; }
    const NodeStats &stats() const { return _state->stats; }

    /**
     * Everything about this node that mutates after construction —
     * what a snapshot archives (see NodeState::serialize).
     */
    NodeState &state() { return *_state; }
    const NodeState &state() const { return *_state; }

    /**
     * Attach a phase observer (nullptr detaches).  Not owned; must
     * outlive the node or be detached first.
     */
    void setObserver(NodeObserver *observer) { _observer = observer; }

    /** Buffered-but-unprocessed packages queued at this node. */
    int pendingPackages() const { return _state->pendingPackages; }
    /** Adjust the pending-package queue (load-balance transfers). */
    void addPendingPackages(int delta);

    /** Drop all pending packages (volatile buffer at power-off). */
    int discardPendingPackages();

    /** The main super-capacitor (overflow/leakage accounting). */
    CapacitorView capacitor() const { return capView(); }

  private:
    // Views over this node's capacitor and RTC state.  _state is a
    // plain pointer member, so these stay usable from const facade
    // methods — the cost memos keep their `mutable` semantics that way.
    CapacitorView capView() const
    { return {_spec->cfg.cap, _state->cap}; }
    RtcView rtcView() const { return {_spec->cfg.rtc, _state->rtc}; }

    /** Report a completed phase to the attached observer, if any. */
    void notifyPhase(NodeObserver::Phase phase, Tick start,
                     Tick duration, Energy energy);

    /** Add @p n fresh pending packages (age 0). */
    void pushPending(int n);

    /** Remove up to @p n pending packages, oldest first. */
    int popOldestPending(int n);

    /**
     * Spend @p e, drawing the FIOS direct budget first when
     * @p direct_eligible, then the capacitor (with discharge loss).
     * @return true if fully paid; false leaves state unchanged.
     */
    bool spend(Energy e, bool direct_eligible);

    /** Whether @p e is affordable right now. */
    bool canAfford(Energy e, bool direct_eligible) const;

    /**
     * Pay radio phase @p p from the capacitor within the slot's time,
     * adding its energy to @p spent and reporting it as @p phase.
     * @return true if paid; false leaves state unchanged.
     */
    bool payRadio(const RfPhase &p, Energy &spent,
                  NodeObserver::Phase phase);

    /** Remaining compute time in this slot. */
    Tick remainingSlotTime() const;

    /**
     * Whether a task of @p task energy and @p compute_time plus the
     * transmission of its result fit the stored energy and the slot.
     */
    bool canComplete(Energy task, Tick compute_time) const;

    /**
     * Run up to @p count tasks of @p e energy and @p t time each,
     * oldest pending package first, counting each in @p counter.
     */
    int runTasks(int count, Energy e, Tick t, NodeObserver::Phase phase,
                 Counter &counter);

    /**
     * Recompute the per-slot cost memos (slotTaskCost, slotTaskTime)
     * if stale.  The memoized expressions are pure functions of the
     * last slot income and fixed configuration, so caching them per
     * slot returns bit-identical values while the classify/balance/
     * execute paths query them many times per slot.
     */
    void refreshSlotCosts() const;

    /**
     * Trace income over [from, to).  Analytic/cached traces answer
     * integrate() directly; sampled traces stream through _cursor so
     * adjacent windows (gap + slot, slot after slot) sample each grid
     * point once instead of re-evaluating every shared boundary.
     */
    Energy accrueIncome(Tick from, Tick to);

    /** Spec of a standalone node (null for chain nodes). */
    std::unique_ptr<const Spec> _ownSpec;
    /** _ownSpec, or the spec of this node's system. */
    const Spec *_spec = nullptr;
    std::unique_ptr<PowerTrace> _trace;
    /**
     * Streaming integration scratch over _trace: a pure function of
     * the trace and its position, so a resumed node rebuilds it on
     * its first accrual.
     */
    std::optional<TraceCursor> _cursor;

    /** State of a standalone node (null for chain nodes). */
    std::unique_ptr<NodeState> _ownState;
    /** This node's mutable state: _ownState or a chain shard row. */
    NodeState *_state = nullptr;

    std::uint32_t _id = 0;
    bool _traceFast = false; ///< _trace->hasFastIntegrate()

    /** Not owned; re-attached by the harness after a resume. */
    NodeObserver *_observer = nullptr;
};

} // namespace neofog

#endif // NEOFOG_NODE_NODE_HH
