#include "node/node.hh"

#include <algorithm>
#include <limits>

#include "net/mac.hh"
#include "net/packet.hh"
#include "sim/logging.hh"

namespace neofog {

std::string
phaseName(NodeObserver::Phase phase)
{
    switch (phase) {
      case NodeObserver::Phase::Wake: return "wake";
      case NodeObserver::Phase::Sample: return "sample";
      case NodeObserver::Phase::Compute: return "compute";
      case NodeObserver::Phase::IncidentalCompute: return "incidental";
      case NodeObserver::Phase::Transmit: return "transmit";
      case NodeObserver::Phase::Receive: return "receive";
      case NodeObserver::Phase::Control: return "control";
    }
    return "?";
}

std::string
operatingModeName(OperatingMode mode)
{
    switch (mode) {
      case OperatingMode::NosVp: return "NOS-VP";
      case OperatingMode::NosNvp: return "NOS-NVP";
      case OperatingMode::FiosNvMote: return "FIOS-NV-mote";
    }
    return "?";
}

namespace {

/** The processor of @p cfg's mode at its clock.  This and makeRadio are
 *  the only places where a mode picks a part. */
Processor
makeProcessor(const Node::Config &cfg)
{
    switch (cfg.mode) {
      case OperatingMode::NosVp:
        return Processor::volatileMcu(cfg.processorMhz);
      case OperatingMode::NosNvp:
        return Processor::nosNvp(cfg.processorMhz);
      case OperatingMode::FiosNvMote:
        return Processor::fiosNvp(cfg.processorMhz);
    }
    NEOFOG_PANIC("unknown operating mode");
}

/** The radio of @p mode.  An NVRF's one-time configuration happens at
 *  deployment, before any slot, so no node pays it. */
Radio
makeRadio(OperatingMode mode)
{
    switch (mode) {
      case OperatingMode::NosVp: return Radio::software();
      case OperatingMode::NosNvp: return Radio::nvmDirect();
      case OperatingMode::FiosNvMote: return Radio::nvrf();
    }
    NEOFOG_PANIC("unknown operating mode");
}

FrontEnd
makeFrontEnd(OperatingMode mode)
{
    return mode == OperatingMode::FiosNvMote ? FrontEnd::makeFios()
                                             : FrontEnd::makeNos();
}

std::unique_ptr<PowerTrace>
checkedTrace(std::unique_ptr<PowerTrace> trace, std::uint32_t id)
{
    if (!trace)
        fatal("node ", id, " needs a power trace");
    return trace;
}

/** Instructions of "control & basic computing" at every wake (Fig 1). */
constexpr std::uint64_t kControlInstructions = 1000;

// The radio prices below are the only copies of their expressions: the
// spec prices its fixed frames with them.

/** One transmission attempt of a @p payload-byte data frame. */
RfPhase
dataFrame(const Radio &rf, std::size_t payload)
{
    return rf.txCost(payload + kFrameOverheadBytes);
}

/** A @p payload-byte control frame: airtime plus a 1 ms guard, at TX
 *  power. */
RfPhase
controlFrame(const Radio &rf, std::size_t payload)
{
    const Tick time =
        rf.airtime(payload + kFrameOverheadBytes) + ticksFromMs(1.0);
    return {time, rf.txPower * time};
}

/** The listen window that receives a @p payload-byte frame: airtime
 *  plus a 3 ms guard, at RX power. */
RfPhase
listenWindow(const Radio &rf, std::size_t payload)
{
    return rf.rxCost(rf.airtime(payload + kFrameOverheadBytes) +
                     ticksFromMs(3.0));
}

Node::Spec::Frame
controlFramePair(const Radio &rf, std::size_t payload)
{
    return {controlFrame(rf, payload), listenWindow(rf, payload)};
}

Node::Spec::Frame
dataFramePair(const Radio &rf, std::size_t payload)
{
    return {dataFrame(rf, payload), listenWindow(rf, payload)};
}

} // namespace

Node::Spec::Spec(const Config &config)
    : cfg(config), frontend(makeFrontEnd(config.mode)),
      cpu(makeProcessor(config)), rf(makeRadio(config.mode)),
      rfInit(rf.initCost())
{
    if (cfg.rawPackageBytes == 0 || cfg.samplesPerPackage == 0)
        fatal("package shape must be nonzero");
    if (cfg.sensor.bytesPerSample == 0)
        fatal("sensor must produce at least one byte per sample");
    requireFiniteNonNegative(cfg.sensor.initPower.watts(),
                             "sensor init power (W)");
    requireFiniteNonNegative(cfg.sensor.samplePower.watts(),
                             "sensor sample power (W)");
    // The summary's instruction count is cast from this fraction.
    if (!(cfg.incidentalFraction >= 0.0 && cfg.incidentalFraction <= 1.0))
        fatal("incidental fraction must be in [0, 1], got ",
              cfg.incidentalFraction);
    NvBuffer::check(cfg.buffer);
    // A node counts its buffered packages in an int.
    const std::size_t packages =
        cfg.buffer.capacityBytes / cfg.rawPackageBytes;
    constexpr int most = std::numeric_limits<int>::max();
    if (packages > static_cast<std::size_t>(most))
        fatal("NV buffer of ", cfg.buffer.capacityBytes, " bytes holds ",
              packages, " raw packages, more than a node counts (", most,
              ")");
    bufferPackages = static_cast<int>(packages);

    // Pure functions of the config: the wake, the sensor/buffer
    // sampling and every fixed-size frame carry no mutable state.
    wakeCost = cpu.wakeEnergy() + cpu.computeEnergy(kControlInstructions);
    wakeTime = cpu.wakeLatency + cpu.computeTime(kControlInstructions);

    // One package: the sensor's initialization (zero once the sensor
    // is initialized), its samples and the NV buffer write.
    const SensorSpec &sensor = cfg.sensor;
    const double samples = static_cast<double>(cfg.samplesPerPackage);
    const Energy write = cfg.buffer.writeEnergy(cfg.rawPackageBytes);
    const auto price_sample = [&](Tick init_time, Energy init_energy,
                                  Tick &time, Energy &energy) {
        energy = init_energy + sensor.sampleEnergy() * samples + write;
        time = init_time +
               static_cast<Tick>(samples *
                                 static_cast<double>(sensor.sampleLatency));
    };
    price_sample(sensor.initLatency, sensor.initEnergy(), sampleTime,
                 sampleCost);
    price_sample(0, Energy::zero(), warmSampleTime, warmSampleCost);

    beacon = controlFrame(rf, kLbBeaconBytes);
    orphanScan = controlFramePair(rf, kOrphanScanBytes);
    scanConfirm = controlFramePair(rf, kScanConfirmBytes);
    devListEntry = controlFramePair(rf, kDevListEntryBytes);
    rawPackage = dataFramePair(rf, cfg.rawPackageBytes);
    resultPackage = cfg.mode == OperatingMode::NosVp
        ? rawPackage
        : dataFramePair(rf, cfg.compressedPackageBytes);
    txCompressedDuration =
        dataFrame(rf, cfg.compressedPackageBytes).duration;
    incidentalInstructions = static_cast<std::uint64_t>(
        cfg.incidentalFraction *
        static_cast<double>(cfg.fogInstructionsPerPackage));
    incidentalTime = cpu.computeTime(incidentalInstructions);
}

NodeState
Node::freshState(const Spec &spec)
{
    const Config &cfg = spec.cfg;
    // Sequenced, so the capacitor's error is reported before the RTC's
    // (argument evaluation order is unspecified).
    const SuperCapacitor::State cap = SuperCapacitor::initialState(cfg.cap);
    const Rtc::State rtc = Rtc::initialState(cfg.rtc);
    return NodeState(cap, rtc,
                     static_cast<std::size_t>(
                         std::max(1, cfg.packageDeadlineSlots)),
                     spec.rf.nonvolatile);
}

Node::Node(const Config &cfg, std::unique_ptr<PowerTrace> trace)
    : _ownSpec(std::make_unique<const Spec>(cfg)), _spec(_ownSpec.get()),
      _trace(checkedTrace(std::move(trace), cfg.id)),
      // Standalone node: its state lives on this object's heap, so the
      // facade stays movable (the pointer survives a move).
      _ownState(std::make_unique<NodeState>(freshState(*_spec))),
      _state(_ownState.get()), _id(cfg.id),
      _traceFast(_trace->hasFastIntegrate())
{
}

Node::Node(const Spec &spec, std::uint32_t id,
           std::unique_ptr<PowerTrace> trace, NodeState &state)
    : _spec(&spec), _trace(checkedTrace(std::move(trace), id)),
      _state(&state), _id(id),
      _traceFast(_trace->hasFastIntegrate())
{
}

Energy
Node::accrueIncome(Tick from, Tick to)
{
    if (_traceFast)
        return _trace->integrate(from, to);
    if (!_cursor || _cursor->position() != from)
        _cursor.emplace(*_trace, from);
    return _cursor->advance(to);
}

void
Node::beginSlot(Tick slot_start, Tick slot_length)
{
    NEOFOG_ASSERT(slot_start >= lastAccrualTime(),
                  "beginSlot must move forward in time");
    NEOFOG_ASSERT(slot_length > 0, "slot length must be positive");

    // Integrate income first (gap window, then slot window, so a
    // streaming cursor advances monotonically), then run the shared
    // banking arithmetic.  The integrals never touch capacitor/RTC
    // state, so splitting them out is order-safe.
    Energy gap_ambient = Energy::zero();
    if (slot_start > lastAccrualTime())
        gap_ambient = accrueIncome(lastAccrualTime(), slot_start);
    const Energy slot_ambient =
        accrueIncome(slot_start, slot_start + slot_length);
    beginSlotWithIncome(slot_start, slot_length, gap_ambient,
                        slot_ambient);
}

void
Node::beginSlotWithIncome(Tick slot_start, Tick slot_length,
                          Energy gap_ambient, Energy slot_ambient)
{
    NodeState &s = *_state;
    NEOFOG_ASSERT(slot_start >= s.lastAccrual,
                  "beginSlot must move forward in time");
    NEOFOG_ASSERT(slot_length > 0, "slot length must be positive");

    CapacitorView cap = capView();
    RtcView rtc = rtcView();
    NodeStats &st = s.stats;

    // Unused direct-channel income from the previous slot flows into
    // the capacitor through the charge path instead.
    if (s.directBudget > Energy::zero()) {
        const double direct_eff =
            _spec->frontend.config().harvestEfficiency *
            _spec->frontend.config().directEfficiency;
        const Energy raw = s.directBudget / direct_eff;
        cap.charge(_spec->frontend.incomeToCap(raw));
        s.directBudget = Energy::zero();
    }

    // Income over any gap (multiplexed nodes sleep through slots).
    if (slot_start > s.lastAccrual) {
        st.harvestedTotal += gap_ambient;
        const Energy rtc_share =
            gap_ambient * rtc.config().chargePriority;
        rtc.advance(slot_start - s.lastAccrual,
                    rtc_share * _spec->frontend.config().harvestEfficiency);
        cap.charge(_spec->frontend.incomeToCap(gap_ambient - rtc_share));
        cap.leak(slot_start - s.lastAccrual);
    }

    // Income arriving during this slot window.
    const Tick slot_end = slot_start + slot_length;
    st.harvestedTotal += slot_ambient;
    const Energy rtc_share =
        slot_ambient * rtc.config().chargePriority;
    rtc.advance(slot_length,
                rtc_share * _spec->frontend.config().harvestEfficiency);
    const Energy usable = slot_ambient - rtc_share;

    if (_spec->cfg.mode == OperatingMode::FiosNvMote) {
        s.directBudget = _spec->frontend.incomeToLoadDirect(usable);
    } else {
        cap.charge(_spec->frontend.incomeToCap(usable));
        s.directBudget = Energy::zero();
    }
    cap.leak(slot_length);

    s.lastIncome = Power::fromWatts(slot_ambient.joules() /
                                    secondsFromTicks(slot_length));
    s.slotCostsValid = false; // income changed; cost memos are stale
    s.lastAccrual = slot_end;
    s.slotStart = slot_start;
    s.slotLength = slot_length;
    s.slotTimeUsed = 0;
    s.awake = false;
    s.rfInitializedThisSlot = false;

    // Age the pending queue; packages past the freshness deadline are
    // stale and discarded.  (The window is allocated at construction,
    // sized from the freshness deadline — the slot loop never grows
    // it.)
    std::vector<int> &ages = s.pendingByAge;
    const int stale = ages.back();
    for (std::size_t a = ages.size() - 1; a > 0; --a)
        ages[a] = ages[a - 1];
    ages[0] = 0;
    if (stale > 0) {
        s.pendingPackages -= stale;
        s.buffer.pop(static_cast<std::size_t>(stale) *
                     _spec->cfg.rawPackageBytes);
        st.samplesDiscarded.increment(
            static_cast<std::uint64_t>(stale));
    }

    // NOS nodes power fully off between slots: volatile peripherals
    // lose their configuration.  (The FIOS node also sees power cycles,
    // but its sensor path is kept warm by the NV buffer controller; the
    // re-init cost is modeled identically since it is tiny either way.)
    s.sensorInitialized = false;

    if (_observer)
        _observer->onSlotBegin(_id, slot_start, cap.stored());
}

Energy
Node::wakeCost() const
{
    return _spec->wakeCost;
}

Energy
Node::activationCost() const
{
    if (_spec->cfg.mode == OperatingMode::NosVp)
        return wakeCost();
    // NVP modes use a higher activation threshold (§5.2.1): they only
    // wake when the slot can plausibly make progress — a sample plus a
    // meaningful fraction of a fog task.  Below that they sleep through
    // the slot and keep accumulating (waking at a multiple of the RTC
    // interval instead, §2.3).
    return wakeCost() + sampleCost() + taskCost() * 0.25;
}

Energy
Node::sampleCost() const
{
    return _spec->sampleCost;
}

void
Node::refreshSlotCosts() const
{
    NodeState &s = *_state;
    if (s.slotCostsValid)
        return;
    const Config &cfg = _spec->cfg;
    const Processor &cpu = _spec->cpu;
    // A NOS-VP node runs the naive on-node step and ships raw data;
    // the NVP modes run the fog task.
    const std::uint64_t inst = cfg.mode == OperatingMode::NosVp
        ? cfg.naiveInstructionsPerPackage
        : cfg.fogInstructionsPerPackage;
    s.slotTaskCost = cpu.effectiveComputeEnergy(inst, s.lastIncome);
    Tick t = cpu.computeTime(inst);
    if (cfg.enableFrequencyScaling && cpu.spendthrift) {
        const double scale = cpu.spendthrift->frequencyScale(s.lastIncome);
        t = static_cast<Tick>(static_cast<double>(t) / scale);
    }
    s.slotTaskTime = t;
    s.slotCostsValid = true;
}

Energy
Node::taskCost() const
{
    refreshSlotCosts();
    return _state->slotTaskCost;
}

Tick
Node::taskComputeTime() const
{
    refreshSlotCosts();
    return _state->slotTaskTime;
}

Energy
Node::packageTxCost() const
{
    Energy e = _spec->resultPackage.send.energy;
    if (!_state->rfInitializedThisSlot)
        e += _spec->rfInit.energy;
    return e;
}

Energy
Node::slotCost() const
{
    return wakeCost() + sampleCost() + taskCost() + packageTxCost();
}

bool
Node::canComplete(Energy task, Tick compute_time) const
{
    const NodeState &s = *_state;
    const Energy tx = packageTxCost();
    // The task may draw the direct channel; the transmission may not.
    const Energy direct_used = std::min(task, s.directBudget);
    const Energy cap_needed =
        _spec->frontend.capCostForLoad((task - direct_used) + tx);
    if (capView().stored() < cap_needed)
        return false;
    const Tick need_time =
        compute_time + _spec->txCompressedDuration +
        (s.rfInitializedThisSlot ? 0 : _spec->rfInit.duration);
    return s.slotTimeUsed + need_time <= s.slotLength;
}

bool
Node::canCompleteOnePackage() const
{
    return canComplete(taskCost(), taskComputeTime());
}

void
Node::notifyPhase(NodeObserver::Phase phase, Tick start, Tick duration,
                  Energy energy)
{
    if (_observer)
        _observer->onPhase(_id, phase, start, duration, energy);
}

bool
Node::canAfford(Energy e, bool direct_eligible) const
{
    Energy deliverable =
        capView().stored() * _spec->frontend.config().dischargeEfficiency;
    if (direct_eligible)
        deliverable += _state->directBudget;
    return deliverable >= e;
}

bool
Node::spend(Energy e, bool direct_eligible)
{
    if (!canAfford(e, direct_eligible))
        return false;
    Energy &direct = _state->directBudget;
    Energy rest = e;
    if (direct_eligible && direct > Energy::zero()) {
        const Energy from_direct = std::min(rest, direct);
        direct -= from_direct;
        rest -= from_direct;
    }
    if (rest > Energy::zero()) {
        const Energy cap_cost = _spec->frontend.capCostForLoad(rest);
        const bool ok = capView().tryDischarge(cap_cost);
        NEOFOG_ASSERT(ok, "spend() affordability check out of sync");
    }
    return true;
}

EnergyClass
Node::classify() const
{
    if (!canAfford(activationCost(), false))
        return EnergyClass::Dead;
    const Energy full = slotCost();
    if (!canAfford(full, true))
        return EnergyClass::Awake;
    if (!canAfford(full + taskCost(), true))
        return EnergyClass::Ready;
    return EnergyClass::Extra;
}

bool
Node::tryWake()
{
    NodeState &s = *_state;
    NodeStats &st = s.stats;
    NEOFOG_ASSERT(!s.awake, "tryWake called twice in a slot");

    // The Dead class of classify().
    if (!canAfford(activationCost(), false)) {
        st.depletionFailures.increment();
        return false;
    }
    // A node that passes has its task priced for the slot, whether or
    // not its mode's activation cost priced it: the memo is restart
    // state (NodeState::slotCostsValid).
    refreshSlotCosts();

    // A desynchronized RTC means the node must first listen long
    // enough to re-acquire the network's slot grid.
    RtcView rtc = rtcView();
    if (!rtc.synchronized()) {
        const Energy resync = rtc.config().resyncEnergy;
        if (!spend(resync, false)) {
            st.depletionFailures.increment();
            return false;
        }
        st.spentRx += resync;
        s.slotTimeUsed += rtc.config().resyncListen;
        rtc.resynchronize();
        st.rtcResyncs.increment();
    }

    const Energy wake = wakeCost();
    if (!spend(wake, false)) {
        st.depletionFailures.increment();
        return false;
    }
    st.spentWake += wake;
    const Tick wake_start = s.slotStart + s.slotTimeUsed;
    s.slotTimeUsed += _spec->wakeTime;
    s.awake = true;
    st.wakeups.increment();
    notifyPhase(NodeObserver::Phase::Wake, wake_start, _spec->wakeTime,
                wake);
    return true;
}

bool
Node::samplePackage()
{
    NodeState &s = *_state;
    NodeStats &st = s.stats;
    NEOFOG_ASSERT(s.awake, "sampling while asleep");
    // The first sample since the last power failure also pays the
    // sensor's initialization; the latch commits only on success.
    const bool warm = s.sensorInitialized;
    const Energy total = warm ? _spec->warmSampleCost : _spec->sampleCost;
    const Tick time = warm ? _spec->warmSampleTime : _spec->sampleTime;
    if (s.slotTimeUsed + time > s.slotLength)
        return false;
    // A full NV buffer discards the new sample (paper §5.1: data are
    // discarded when the node lacks energy to drain the buffer).
    if (pendingCapacity() == 0) {
        st.samplesDiscarded.increment();
        return false;
    }
    if (!spend(total, false)) {
        st.samplesDiscarded.increment();
        return false;
    }
    s.sensorInitialized = true;
    st.spentSample += total;
    notifyPhase(NodeObserver::Phase::Sample,
                s.slotStart + s.slotTimeUsed, time, total);
    s.slotTimeUsed += time;
    s.buffer.push(_spec->cfg.buffer, _spec->cfg.rawPackageBytes);
    pushPending(1);
    st.packagesSampled.increment();
    return true;
}

void
Node::pushPending(int n)
{
    NEOFOG_ASSERT(n >= 0, "pushPending negative");
    NodeState &s = *_state;
    s.pendingByAge[0] += n;
    s.pendingPackages += n;
}

int
Node::popOldestPending(int n)
{
    NEOFOG_ASSERT(n >= 0, "popOldestPending negative");
    NodeState &s = *_state;
    std::vector<int> &ages = s.pendingByAge;
    int taken = 0;
    for (std::size_t a = ages.size(); a-- > 0 && taken < n;) {
        const int t = std::min(ages[a], n - taken);
        ages[a] -= t;
        taken += t;
    }
    s.pendingPackages -= taken;
    return taken;
}

int
Node::runTasks(int count, Energy e, Tick t, NodeObserver::Phase phase,
               Counter &counter)
{
    NodeState &s = *_state;
    int done = 0;
    while (done < count && s.pendingPackages > 0) {
        if (s.slotTimeUsed + t > s.slotLength)
            break;
        if (!spend(e, /*direct_eligible=*/true))
            break;
        s.stats.spentCompute += e;
        notifyPhase(phase, s.slotStart + s.slotTimeUsed, t, e);
        s.slotTimeUsed += t;
        popOldestPending(1);
        s.buffer.pop(_spec->cfg.rawPackageBytes);
        ++done;
        counter.increment();
    }
    return done;
}

int
Node::executeTasks(int count)
{
    NEOFOG_ASSERT(_state->awake, "executing tasks while asleep");
    // tryWake priced the slot, so the memo is fresh: pricing the task
    // once here writes nothing a snapshot would not already hold.
    return runTasks(count, taskCost(), taskComputeTime(),
                    NodeObserver::Phase::Compute,
                    _state->stats.tasksExecuted);
}

Energy
Node::incidentalTaskCost() const
{
    return _spec->cpu.effectiveComputeEnergy(_spec->incidentalInstructions,
                                             _state->lastIncome);
}

bool
Node::canCompleteIncidental() const
{
    return _spec->cfg.enableIncidentalComputing &&
           canComplete(incidentalTaskCost(), _spec->incidentalTime);
}

int
Node::executeIncidentalTasks(int count)
{
    NEOFOG_ASSERT(_state->awake, "incidental computing while asleep");
    if (!_spec->cfg.enableIncidentalComputing)
        return 0;
    return runTasks(count, incidentalTaskCost(), _spec->incidentalTime,
                    NodeObserver::Phase::IncidentalCompute,
                    _state->stats.incidentalTasks);
}

bool
Node::payRadio(const RfPhase &p, Energy &spent, NodeObserver::Phase phase)
{
    NodeState &s = *_state;
    if (s.slotTimeUsed + p.duration > s.slotLength)
        return false;
    if (!spend(p.energy, false))
        return false;
    spent += p.energy;
    notifyPhase(phase, s.slotStart + s.slotTimeUsed, p.duration,
                p.energy);
    s.slotTimeUsed += p.duration;
    return true;
}

bool
Node::payTransmit(const RfPhase &one, int attempts)
{
    NodeState &s = *_state;
    NEOFOG_ASSERT(s.awake, "transmitting while asleep");
    NEOFOG_ASSERT(attempts >= 1, "attempts >= 1");
    RfPhase init{};
    if (!s.rfInitializedThisSlot)
        init = _spec->rfInit;
    const RfPhase all{
        init.duration + one.duration * attempts,
        init.energy + one.energy * static_cast<double>(attempts)};
    if (!payRadio(all, s.stats.spentTx, NodeObserver::Phase::Transmit))
        return false;
    s.rfInitializedThisSlot = true;
    return true;
}

bool
Node::payListen(const RfPhase &window)
{
    NEOFOG_ASSERT(_state->awake, "receiving while asleep");
    return payRadio(window, _state->stats.spentRx,
                    NodeObserver::Phase::Receive);
}

bool
Node::payControl(const RfPhase &frame)
{
    NEOFOG_ASSERT(_state->awake, "control message while asleep");
    return payRadio(frame, _state->stats.spentTx,
                    NodeObserver::Phase::Control);
}

int
Node::pendingCapacity() const
{
    return std::max(0, _spec->bufferPackages - _state->pendingPackages);
}

double
Node::spareTaskCapacity() const
{
    const NodeState &s = *_state;
    // Capacity offered to the load balancer.  Accepting a task only
    // helps the network when the energy it burns would otherwise be
    // *wasted* — income the full-ish capacitor is about to reject, or
    // this slot's unused direct-channel budget.  Counting merely
    // "stored" energy would let transfers displace the receiver's own
    // future work (a net loss once transfer costs are paid).
    const CapacitorView cap = capView();
    const Energy surplus_stored =
        (cap.stored() - cap.capacity() * 0.7).clampedNonNegative();
    Energy deliverable =
        surplus_stored * _spec->frontend.config().dischargeEfficiency +
        s.directBudget;
    const Energy per_task = taskCost() + packageTxCost();
    if (per_task.joules() <= 0.0)
        return 0.0;
    const Energy reserve =
        per_task * static_cast<double>(s.pendingPackages);
    if (deliverable <= reserve)
        return 0.0;
    const Energy spare = deliverable - reserve;
    // Also bounded by remaining slot compute time.
    const Tick per_task_time = taskComputeTime();
    const double time_bound = per_task_time > 0
        ? static_cast<double>(remainingSlotTime()) /
          static_cast<double>(per_task_time)
        : 1e9;
    return std::min(spare / per_task, time_bound);
}

double
Node::relativeTaskCost() const
{
    const std::optional<SpendthriftPolicy> &policy = _spec->cpu.spendthrift;
    return policy ? 1.0 / policy->benefit(_state->lastIncome) : 1.0;
}

Tick
Node::remainingSlotTime() const
{
    const NodeState &s = *_state;
    return s.slotTimeUsed >= s.slotLength
        ? 0
        : s.slotLength - s.slotTimeUsed;
}

void
Node::addPendingPackages(int delta)
{
    if (delta >= 0) {
        pushPending(delta);
    } else {
        const int removed = popOldestPending(-delta);
        NEOFOG_ASSERT(removed == -delta, "pending packages underflow");
    }
}

int
Node::discardPendingPackages()
{
    NodeState &s = *_state;
    const int dropped = s.pendingPackages;
    s.pendingPackages = 0;
    std::fill(s.pendingByAge.begin(), s.pendingByAge.end(), 0);
    s.buffer.discardAll();
    if (dropped > 0)
        s.stats.samplesDiscarded.increment(
            static_cast<std::uint64_t>(dropped));
    return dropped;
}

} // namespace neofog
