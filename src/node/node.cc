#include "node/node.hh"

#include <algorithm>

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

std::unique_ptr<Processor>
makeProcessor(const Node::Config &cfg)
{
    Processor::Config base;
    base.frequencyHz = cfg.processorMhz * 1e6;
    // Active power scales with clock so energy/instruction stays at the
    // measured 2.508 nJ.
    base.activePower =
        Power::fromMilliwatts(0.209 * cfg.processorMhz);

    switch (cfg.mode) {
      case OperatingMode::NosVp: {
        VolatileProcessor::VpConfig vp;
        vp.base = base;
        return std::make_unique<VolatileProcessor>(vp);
      }
      case OperatingMode::NosNvp: {
        NvProcessor::NvpConfig nvp;
        nvp.base = base;
        return std::make_unique<NvProcessor>(nvp);
      }
      case OperatingMode::FiosNvMote: {
        NvProcessor::NvpConfig nvp = NvProcessor::fiosConfig();
        nvp.base = base;
        return std::make_unique<NvProcessor>(nvp);
      }
    }
    NEOFOG_PANIC("unknown operating mode");
}

std::unique_ptr<RfModule>
makeRadio(const Node::Config &cfg)
{
    switch (cfg.mode) {
      case OperatingMode::NosVp:
        return std::make_unique<SoftwareRf>();
      case OperatingMode::NosNvp:
        return std::make_unique<SoftwareRf>(
            SoftwareRf::nvmDirectConfig());
      case OperatingMode::FiosNvMote: {
        auto rf = std::make_unique<NvRfController>();
        // Initial deployment performs the one-time configuration.
        rf->configure();
        return rf;
      }
    }
    NEOFOG_PANIC("unknown operating mode");
}

FrontEnd
makeFrontEnd(OperatingMode mode)
{
    return mode == OperatingMode::FiosNvMote ? FrontEnd::makeFios()
                                             : FrontEnd::makeNos();
}

/** Pending-queue depth of a node (its freshness deadline, >= 1). */
std::size_t
pendingDepthOf(const Node::Config &cfg)
{
    return static_cast<std::size_t>(
        std::max(1, cfg.packageDeadlineSlots));
}

} // namespace

namespace {

/** Instructions of "control & basic computing" at every wake (Fig 1). */
constexpr std::uint64_t kControlInstructions = 1000;

} // namespace

Node::Node(const Config &cfg, std::unique_ptr<PowerTrace> trace, Rng rng)
    : Node(cfg, std::move(trace), rng, static_cast<NodeShard *>(nullptr))
{
}

Node::Node(const Config &cfg, std::unique_ptr<PowerTrace> trace, Rng rng,
           NodeShard &shard)
    : Node(cfg, std::move(trace), rng, &shard)
{
}

Node::Node(const Config &cfg, std::unique_ptr<PowerTrace> trace, Rng rng,
           NodeShard *shard)
    : _cfg(cfg), _trace(std::move(trace)), _rng(rng),
      _frontend(makeFrontEnd(cfg.mode)), _cpu(makeProcessor(cfg))
{
    if (!_trace)
        fatal("node ", cfg.id, " needs a power trace");
    if (_cfg.rawPackageBytes == 0 || _cfg.samplesPerPackage == 0)
        fatal("package shape must be nonzero");

    if (shard == nullptr) {
        // Standalone node: its one-row shard lives on this object's
        // heap, so the facade stays movable (the pointer into the
        // owned shard survives a move of the Node).
        _ownShard = std::make_unique<NodeShard>();
        _ownShard->reserveRows(1, pendingDepthOf(cfg));
        shard = _ownShard.get();
    }
    _shard = shard;
    _row = _shard->addRow(cfg.cap, cfg.rtc, cfg.sensor, cfg.buffer,
                          pendingDepthOf(cfg), makeRadio(cfg));

    _traceFast = _trace->hasFastIntegrate();
    _wakeCostConst = _cpu->wakeEnergy() +
                     _cpu->computeEnergy(kControlInstructions);
    const double samples = static_cast<double>(_cfg.samplesPerPackage);
    _sampleCostConst = sensorRow().spec().initEnergy() +
                       sensorRow().spec().sampleEnergy() * samples +
                       bufferRow().writeEnergy(_cfg.rawPackageBytes);
    const std::size_t payload = _cfg.mode == OperatingMode::NosVp
        ? _cfg.rawPackageBytes
        : _cfg.compressedPackageBytes;
    _txPackageEnergy =
        rfRow().txCost(payload + kFrameOverheadBytes).energy;
    _txCompressedDuration =
        rfRow().txCost(_cfg.compressedPackageBytes + kFrameOverheadBytes)
            .duration;
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
    NodeShard &s = *_shard;
    NEOFOG_ASSERT(slot_start >= s.lastAccrual[_row],
                  "beginSlot must move forward in time");
    NEOFOG_ASSERT(slot_length > 0, "slot length must be positive");

    CapacitorView cap = capView();
    RtcView rtc = rtcView();
    NodeStats &st = s.stats[_row];

    // Unused direct-channel income from the previous slot flows into
    // the capacitor through the charge path instead.
    if (s.directBudgetJ[_row] > 0.0) {
        const double direct_eff =
            _frontend.config().harvestEfficiency *
            _frontend.config().directEfficiency;
        const Energy raw =
            Energy::fromJoules(s.directBudgetJ[_row]) / direct_eff;
        cap.charge(_frontend.incomeToCap(raw));
        s.directBudgetJ[_row] = 0.0;
    }

    // Income over any gap (multiplexed nodes sleep through slots).
    if (slot_start > s.lastAccrual[_row]) {
        st.harvestedTotal += gap_ambient;
        const Energy rtc_share =
            gap_ambient * rtc.config().chargePriority;
        rtc.advance(slot_start - s.lastAccrual[_row],
                    rtc_share * _frontend.config().harvestEfficiency);
        cap.charge(_frontend.incomeToCap(gap_ambient - rtc_share));
        cap.leak(slot_start - s.lastAccrual[_row]);
    }

    // Income arriving during this slot window.
    const Tick slot_end = slot_start + slot_length;
    st.harvestedTotal += slot_ambient;
    const Energy rtc_share =
        slot_ambient * rtc.config().chargePriority;
    rtc.advance(slot_length,
                rtc_share * _frontend.config().harvestEfficiency);
    const Energy usable = slot_ambient - rtc_share;

    if (_cfg.mode == OperatingMode::FiosNvMote) {
        s.directBudgetJ[_row] =
            _frontend.incomeToLoadDirect(usable).joules();
    } else {
        cap.charge(_frontend.incomeToCap(usable));
        s.directBudgetJ[_row] = 0.0;
    }
    cap.leak(slot_length);

    s.lastIncome[_row] = Power::fromWatts(slot_ambient.joules() /
                                          secondsFromTicks(slot_length));
    s.slotCostsValid[_row] = 0; // income changed; cost memos are stale
    s.lastAccrual[_row] = slot_end;
    s.slotStart[_row] = slot_start;
    s.slotLength[_row] = slot_length;
    s.slotTimeUsed[_row] = 0;
    s.awake[_row] = 0;
    s.rfInitializedThisSlot[_row] = 0;

    // Age the pending queue; packages past the freshness deadline are
    // stale and discarded.  (The window is allocated at construction,
    // sized from the freshness deadline — the slot loop never grows
    // it.)
    int *const ages = s.pendingAge.data() + s.pendingOffset[_row];
    const std::size_t depth = s.pendingDepth[_row];
    const int stale = ages[depth - 1];
    for (std::size_t a = depth - 1; a > 0; --a)
        ages[a] = ages[a - 1];
    ages[0] = 0;
    if (stale > 0) {
        s.pendingPackages[_row] -= stale;
        s.buffer[_row].pop(static_cast<std::size_t>(stale) *
                           _cfg.rawPackageBytes);
        st.samplesDiscarded.increment(
            static_cast<std::uint64_t>(stale));
    }

    // NOS nodes power fully off between slots: volatile peripherals
    // lose their configuration.  (The FIOS node also sees power cycles,
    // but its sensor path is kept warm by the NV buffer controller; the
    // re-init cost is modeled identically since it is tiny either way.)
    s.sensor[_row].onPowerFailure();
    s.rf[_row]->onPowerFailure();
}

Energy
Node::wakeCost() const
{
    return _wakeCostConst;
}

Energy
Node::activationCost() const
{
    if (_cfg.mode == OperatingMode::NosVp)
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
    return _sampleCostConst;
}

void
Node::refreshSlotCosts() const
{
    NodeShard &s = *_shard;
    if (s.slotCostsValid[_row])
        return;
    if (_cfg.mode == OperatingMode::NosVp) {
        s.slotTaskCost[_row] =
            _cpu->computeEnergy(_cfg.naiveInstructionsPerPackage);
        s.slotTaskTime[_row] =
            _cpu->computeTime(_cfg.naiveInstructionsPerPackage);
    } else {
        const auto *nvp = static_cast<const NvProcessor *>(_cpu.get());
        s.slotTaskCost[_row] = nvp->effectiveComputeEnergy(
            _cfg.fogInstructionsPerPackage, s.lastIncome[_row]);
        Tick t = _cpu->computeTime(_cfg.fogInstructionsPerPackage);
        if (_cfg.enableFrequencyScaling) {
            const double scale =
                nvp->spendthrift().frequencyScale(s.lastIncome[_row]);
            t = static_cast<Tick>(static_cast<double>(t) / scale);
        }
        s.slotTaskTime[_row] = t;
    }
    s.slotCostsValid[_row] = 1;
}

Energy
Node::taskCost() const
{
    refreshSlotCosts();
    return _shard->slotTaskCost[_row];
}

Tick
Node::taskComputeTime() const
{
    refreshSlotCosts();
    return _shard->slotTaskTime[_row];
}

Energy
Node::packageTxCost() const
{
    Energy e = _txPackageEnergy;
    if (!_shard->rfInitializedThisSlot[_row])
        e += rfRow().initCost().energy;
    return e;
}

Energy
Node::slotCost() const
{
    return wakeCost() + sampleCost() + taskCost() + packageTxCost();
}

bool
Node::canCompleteOnePackage() const
{
    const NodeShard &s = *_shard;
    const Energy task = taskCost();
    const Energy tx = packageTxCost();
    // The task may draw the direct channel; the transmission may not.
    const Energy direct_used =
        std::min(task, Energy::fromJoules(s.directBudgetJ[_row]));
    const Energy cap_needed =
        _frontend.capCostForLoad((task - direct_used) + tx);
    if (capView().stored() < cap_needed)
        return false;
    const Tick need_time = taskComputeTime() + _txCompressedDuration +
                           (s.rfInitializedThisSlot[_row]
                                ? 0 : s.rf[_row]->initCost().duration);
    return s.slotTimeUsed[_row] + need_time <= s.slotLength[_row];
}

void
Node::notifyPhase(NodeObserver::Phase phase, Tick start, Tick duration,
                  Energy energy)
{
    if (_observer)
        _observer->onPhase(_cfg.id, phase, start, duration, energy);
}

bool
Node::canAfford(Energy e, bool direct_eligible) const
{
    Energy deliverable =
        capView().stored() * _frontend.config().dischargeEfficiency;
    if (direct_eligible)
        deliverable += Energy::fromJoules(_shard->directBudgetJ[_row]);
    return deliverable >= e;
}

bool
Node::spend(Energy e, bool direct_eligible)
{
    if (!canAfford(e, direct_eligible))
        return false;
    double &direct = _shard->directBudgetJ[_row];
    Energy rest = e;
    if (direct_eligible && direct > 0.0) {
        const Energy from_direct =
            std::min(rest, Energy::fromJoules(direct));
        direct -= from_direct.joules();
        rest -= from_direct;
    }
    if (rest > Energy::zero()) {
        const Energy cap_cost = _frontend.capCostForLoad(rest);
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
    NodeShard &s = *_shard;
    NodeStats &st = s.stats[_row];
    NEOFOG_ASSERT(!s.awake[_row], "tryWake called twice in a slot");

    if (classify() == EnergyClass::Dead) {
        st.depletionFailures.increment();
        return false;
    }

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
        s.slotTimeUsed[_row] += rtc.config().resyncListen;
        rtc.resynchronize();
        st.rtcResyncs.increment();
    }

    const Energy wake = wakeCost();
    if (!spend(wake, false)) {
        st.depletionFailures.increment();
        return false;
    }
    st.spentWake += wake;
    const Tick wake_start = s.slotStart[_row] + s.slotTimeUsed[_row];
    const Tick wake_time = _cpu->wakeLatency() +
                           _cpu->computeTime(kControlInstructions);
    s.slotTimeUsed[_row] += wake_time;
    s.awake[_row] = 1;
    st.wakeups.increment();
    notifyPhase(NodeObserver::Phase::Wake, wake_start, wake_time, wake);
    return true;
}

bool
Node::samplePackage()
{
    NodeShard &s = *_shard;
    NodeStats &st = s.stats[_row];
    Sensor &sensor = s.sensor[_row];
    NEOFOG_ASSERT(s.awake[_row], "sampling while asleep");
    Sensor::Cost init{};
    if (!sensor.initialized()) {
        // Peek the cost without committing sensor state yet.
        init = {sensor.spec().initLatency, sensor.spec().initEnergy()};
    }
    const double n = static_cast<double>(_cfg.samplesPerPackage);
    const Energy total = init.energy +
                         sensor.spec().sampleEnergy() * n +
                         s.buffer[_row].writeEnergy(_cfg.rawPackageBytes);
    const Tick time =
        init.duration +
        static_cast<Tick>(n * static_cast<double>(
                                  sensor.spec().sampleLatency));
    if (s.slotTimeUsed[_row] + time > s.slotLength[_row])
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
    if (!sensor.initialized())
        sensor.initialize();
    st.spentSample += total;
    notifyPhase(NodeObserver::Phase::Sample,
                s.slotStart[_row] + s.slotTimeUsed[_row], time, total);
    s.slotTimeUsed[_row] += time;
    s.buffer[_row].push(_cfg.rawPackageBytes);
    pushPending(1);
    st.packagesSampled.increment();
    return true;
}

void
Node::pushPending(int n)
{
    NEOFOG_ASSERT(n >= 0, "pushPending negative");
    NodeShard &s = *_shard;
    s.pendingAge[s.pendingOffset[_row]] += n;
    s.pendingPackages[_row] += n;
}

int
Node::popOldestPending(int n)
{
    NEOFOG_ASSERT(n >= 0, "popOldestPending negative");
    NodeShard &s = *_shard;
    int *const ages = s.pendingAge.data() + s.pendingOffset[_row];
    int taken = 0;
    for (std::size_t a = s.pendingDepth[_row]; a-- > 0 && taken < n;) {
        const int t = std::min(ages[a], n - taken);
        ages[a] -= t;
        taken += t;
    }
    s.pendingPackages[_row] -= taken;
    return taken;
}

int
Node::executeTasks(int count)
{
    NodeShard &s = *_shard;
    NodeStats &st = s.stats[_row];
    NEOFOG_ASSERT(s.awake[_row], "executing tasks while asleep");
    int done = 0;
    while (done < count && s.pendingPackages[_row] > 0) {
        const Tick t = taskComputeTime();
        if (s.slotTimeUsed[_row] + t > s.slotLength[_row])
            break;
        const Energy e = taskCost();
        if (!spend(e, /*direct_eligible=*/true))
            break;
        st.spentCompute += e;
        notifyPhase(NodeObserver::Phase::Compute,
                    s.slotStart[_row] + s.slotTimeUsed[_row], t, e);
        s.slotTimeUsed[_row] += t;
        popOldestPending(1);
        s.buffer[_row].pop(_cfg.rawPackageBytes);
        ++done;
        st.tasksExecuted.increment();
    }
    return done;
}

Energy
Node::incidentalTaskCost() const
{
    const auto inst = static_cast<std::uint64_t>(
        _cfg.incidentalFraction *
        static_cast<double>(_cfg.fogInstructionsPerPackage));
    if (_cfg.mode == OperatingMode::NosVp)
        return _cpu->computeEnergy(inst);
    const auto *nvp = static_cast<const NvProcessor *>(_cpu.get());
    return nvp->effectiveComputeEnergy(inst, _shard->lastIncome[_row]);
}

bool
Node::canCompleteIncidental() const
{
    if (!_cfg.enableIncidentalComputing)
        return false;
    const NodeShard &s = *_shard;
    const Energy task = incidentalTaskCost();
    const Energy tx = packageTxCost();
    const Energy direct_used =
        std::min(task, Energy::fromJoules(s.directBudgetJ[_row]));
    const Energy cap_needed =
        _frontend.capCostForLoad((task - direct_used) + tx);
    if (capView().stored() < cap_needed)
        return false;
    const auto inst = static_cast<std::uint64_t>(
        _cfg.incidentalFraction *
        static_cast<double>(_cfg.fogInstructionsPerPackage));
    const Tick need_time =
        _cpu->computeTime(inst) +
        s.rf[_row]
            ->txCost(_cfg.compressedPackageBytes + kFrameOverheadBytes)
            .duration +
        (s.rfInitializedThisSlot[_row]
             ? 0 : s.rf[_row]->initCost().duration);
    return s.slotTimeUsed[_row] + need_time <= s.slotLength[_row];
}

int
Node::executeIncidentalTasks(int count)
{
    NodeShard &s = *_shard;
    NodeStats &st = s.stats[_row];
    NEOFOG_ASSERT(s.awake[_row], "incidental computing while asleep");
    if (!_cfg.enableIncidentalComputing)
        return 0;
    int done = 0;
    const auto inst = static_cast<std::uint64_t>(
        _cfg.incidentalFraction *
        static_cast<double>(_cfg.fogInstructionsPerPackage));
    while (done < count && s.pendingPackages[_row] > 0) {
        const Tick t = _cpu->computeTime(inst);
        if (s.slotTimeUsed[_row] + t > s.slotLength[_row])
            break;
        const Energy e = incidentalTaskCost();
        if (!spend(e, /*direct_eligible=*/true))
            break;
        st.spentCompute += e;
        notifyPhase(NodeObserver::Phase::IncidentalCompute,
                    s.slotStart[_row] + s.slotTimeUsed[_row], t, e);
        s.slotTimeUsed[_row] += t;
        popOldestPending(1);
        s.buffer[_row].pop(_cfg.rawPackageBytes);
        ++done;
        st.incidentalTasks.increment();
    }
    return done;
}

bool
Node::payTransmit(std::size_t payload_bytes, int attempts)
{
    NodeShard &s = *_shard;
    NEOFOG_ASSERT(s.awake[_row], "transmitting while asleep");
    NEOFOG_ASSERT(attempts >= 1, "attempts >= 1");
    const RfPhase one =
        s.rf[_row]->txCost(payload_bytes + kFrameOverheadBytes);
    RfPhase init{};
    if (!s.rfInitializedThisSlot[_row])
        init = s.rf[_row]->initCost();
    const Tick time = init.duration + one.duration * attempts;
    if (s.slotTimeUsed[_row] + time > s.slotLength[_row])
        return false;
    const Energy e =
        init.energy + one.energy * static_cast<double>(attempts);
    if (!spend(e, false))
        return false;
    s.rfInitializedThisSlot[_row] = 1;
    s.stats[_row].spentTx += e;
    notifyPhase(NodeObserver::Phase::Transmit,
                s.slotStart[_row] + s.slotTimeUsed[_row], time, e);
    s.slotTimeUsed[_row] += time;
    return true;
}

bool
Node::payReceive(std::size_t payload_bytes)
{
    NodeShard &s = *_shard;
    NEOFOG_ASSERT(s.awake[_row], "receiving while asleep");
    const Tick window =
        s.rf[_row]->airtime(payload_bytes + kFrameOverheadBytes) +
        ticksFromMs(3.0);
    if (s.slotTimeUsed[_row] + window > s.slotLength[_row])
        return false;
    const Energy e = s.rf[_row]->rxCost(window).energy;
    if (!spend(e, false))
        return false;
    s.stats[_row].spentRx += e;
    notifyPhase(NodeObserver::Phase::Receive,
                s.slotStart[_row] + s.slotTimeUsed[_row], window, e);
    s.slotTimeUsed[_row] += window;
    return true;
}

bool
Node::payControlMessage(std::size_t payload_bytes)
{
    NodeShard &s = *_shard;
    NEOFOG_ASSERT(s.awake[_row], "control message while asleep");
    const Tick time =
        s.rf[_row]->airtime(payload_bytes + kFrameOverheadBytes) +
        ticksFromMs(1.0);
    if (s.slotTimeUsed[_row] + time > s.slotLength[_row])
        return false;
    const Energy e = s.rf[_row]->config().txPower * time;
    if (!spend(e, false))
        return false;
    s.stats[_row].spentTx += e;
    notifyPhase(NodeObserver::Phase::Control,
                s.slotStart[_row] + s.slotTimeUsed[_row], time, e);
    s.slotTimeUsed[_row] += time;
    return true;
}

int
Node::pendingCapacity() const
{
    const auto max_packages = static_cast<int>(
        bufferRow().capacity() / _cfg.rawPackageBytes);
    return std::max(0, max_packages - _shard->pendingPackages[_row]);
}

double
Node::spareTaskCapacity() const
{
    const NodeShard &s = *_shard;
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
        surplus_stored * _frontend.config().dischargeEfficiency +
        Energy::fromJoules(s.directBudgetJ[_row]);
    const Energy per_task = taskCost() + packageTxCost();
    if (per_task.joules() <= 0.0)
        return 0.0;
    const Energy reserve =
        per_task * static_cast<double>(s.pendingPackages[_row]);
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
    if (_cfg.mode == OperatingMode::NosVp)
        return 1.0;
    const auto *nvp = static_cast<const NvProcessor *>(_cpu.get());
    return 1.0 / nvp->spendthrift().benefit(_shard->lastIncome[_row]);
}

Tick
Node::remainingSlotTime() const
{
    const NodeShard &s = *_shard;
    return s.slotTimeUsed[_row] >= s.slotLength[_row]
        ? 0
        : s.slotLength[_row] - s.slotTimeUsed[_row];
}

void
Node::recordEnergyPoint(Tick now)
{
    statsRow().storedEnergyMj.record(now,
                                     capView().stored().millijoules());
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
    NodeShard &s = *_shard;
    const int dropped = s.pendingPackages[_row];
    s.pendingPackages[_row] = 0;
    int *const ages = s.pendingAge.data() + s.pendingOffset[_row];
    std::fill(ages, ages + s.pendingDepth[_row], 0);
    s.buffer[_row].discardAll();
    if (dropped > 0)
        s.stats[_row].samplesDiscarded.increment(
            static_cast<std::uint64_t>(dropped));
    return dropped;
}

} // namespace neofog
