#include "fog/chain_engine.hh"

#include <algorithm>

#include "balance/policy_registry.hh"
#include "energy/power_trace.hh"
#include "sim/logging.hh"

namespace neofog {

ChainProbeLog::ChainProbeLog(std::size_t capacity)
    : storedEnergyMj(capacity), yieldFrac(capacity),
      balancedTasks(capacity), depletionFailures(capacity)
{
}

std::vector<report_io::LabeledSeries>
ChainProbeLog::series(std::size_t chain_index) const
{
    const std::string prefix = "chain" + std::to_string(chain_index) + ".";
    return {{prefix + "stored_mj", "mJ", storedEnergyMj.snapshot()},
            {prefix + "yield", "ratio", yieldFrac.snapshot()},
            {prefix + "balanced_tasks", "", balancedTasks.snapshot()},
            {prefix + "depletion_failures", "",
             depletionFailures.snapshot()}};
}

void
ChainState::checkAliveLength(const std::string &path,
                             std::size_t logical) const
{
    if (aliveLastSlot.size() != logical)
        fatal("snapshot field '", path, "' has ", aliveLastSlot.size(),
              " entries, but the chain has ", logical, " logical nodes");
}

void
ChainState::rejectRotation(const std::string &path, std::int32_t r) const
{
    fatal("snapshot field '", path, "' is ", r, ", but group0.rotation is ",
          rotation, ": a chain's clone groups rotate together");
}

ChainEngine::ChainEngine(const ScenarioConfig &cfg, const Node::Spec &spec,
                         const NodeState &fresh, std::size_t chain_index,
                         std::uint32_t first_node_id, Rng rng,
                         std::shared_ptr<const PowerTrace> shared_trace)
    : _cfg(cfg), _chainIndex(chain_index),
      _balancer(PolicyRegistry::instance().make(cfg.balancerPolicy)),
      _sharedTrace(std::move(shared_trace)), _spec(spec), _state(rng)
{
    const auto mux = static_cast<std::size_t>(_cfg.multiplexing);
    std::uint32_t next_id = first_node_id;
    _nodes.reserve(_cfg.nodesPerChain * mux);
    // All mutable node state lives in the chain's shard; size it for
    // the whole chain up front so node construction never reallocates
    // (the facades keep pointers into it).
    _state.nodes.reserve(_cfg.nodesPerChain * mux);
    for (std::size_t p = 0; p < _cfg.nodesPerChain * mux; ++p) {
        // No node owns a stream, but the chain stream still takes the
        // draw that forked one (fork() is Rng(next())), so every later
        // draw keeps its value.
        _state.rng.next();
        _nodes.push_back(std::make_unique<Node>(
            _spec, next_id++, makeTrace(), _state.nodes.add(fresh)));
    }
    _state.aliveLastSlot.assign(_cfg.nodesPerChain, true);
    _scheduled.reserve(_cfg.nodesPerChain);
    _lbStates.reserve(_cfg.nodesPerChain);
    _lbOutcome.moves.reserve(_cfg.nodesPerChain);
    _windowMemo.reserve(4);
    _balancerIsNoop = _balancer->name() == "none";
}

std::unique_ptr<PowerTrace>
ChainEngine::makeTrace()
{
    const Tick span = _cfg.horizon + 2 * _cfg.slotInterval;
    switch (_cfg.traceKind) {
      case TraceKind::ForestIndependent:
        return traces::makeForestTrace(_state.rng, span, _cfg.meanIncome);
      case TraceKind::BridgeDependent:
        return traces::makeBridgeTrace(_cfg.profileIndex, _state.rng, span,
                                       _cfg.meanIncome);
      case TraceKind::MountainSunny:
        return traces::makeMountainTrace(_state.rng, span, _cfg.meanIncome);
      case TraceKind::RainLow:
        // Dependent: all nodes share the deployment's spell schedule.
        // FogSystem built (and prefix-summed) that stream once; each
        // node only adds its gain.
        NEOFOG_ASSERT(_sharedTrace, "rain chain without the shared stream");
        return std::make_unique<ScaledTrace>(
            _cfg.meanIncome.watts() * traces::rainNodeGain(_state.rng),
            _sharedTrace);
      case TraceKind::Constant:
        return std::make_unique<ConstantTrace>(_cfg.meanIncome);
    }
    NEOFOG_PANIC("unknown trace kind");
}

const Node &
ChainEngine::node(std::size_t physical_idx) const
{
    NEOFOG_ASSERT(physical_idx < _nodes.size(), "node index");
    return *_nodes[physical_idx];
}

void
ChainEngine::updateMembership(std::int64_t slot_index)
{
    // NVD4Q membership update (Algorithm 2 line 9-10): rotate the
    // clone schedules at the programmer-defined frequency before
    // resolving who serves this slot.  State travels via the NVRF
    // clone mechanism, so no network reconstruction is needed.
    if (_cfg.membershipUpdateInterval <= 0 || slot_index == 0)
        return;
    const std::int64_t every =
        _cfg.membershipUpdateInterval / _cfg.slotInterval;
    if (every > 0 && slot_index % every == 0 && _cfg.multiplexing > 1) {
        ++_state.rotation;
        _state.report.membershipUpdates += _cfg.nodesPerChain;
    }
}

void
ChainEngine::runSlot(std::int64_t slot_index)
{
    const Tick t = slot_index * _cfg.slotInterval;

    updateMembership(slot_index);

    // One physical clone of every logical node is scheduled this slot:
    // the one at the chain's phase within each group of mux clones.
    // _scheduled is engine-owned scratch: reusing its capacity keeps
    // the per-slot loop allocation-free.
    const auto mux = static_cast<std::int64_t>(_cfg.multiplexing);
    std::int64_t phase = (slot_index + _state.rotation) % mux;
    if (phase < 0)
        phase += mux;
    std::vector<Node *> &scheduled = _scheduled;
    scheduled.clear();
    for (auto p = static_cast<std::size_t>(phase); p < _nodes.size();
         p += static_cast<std::size_t>(mux))
        scheduled.push_back(_nodes[p].get());

    if (_sharedTrace) {
        beginSlotBatch(scheduled, t);
    } else {
        for (Node *n : scheduled)
            n->beginSlot(t, _cfg.slotInterval);
    }
    for (Node *n : scheduled) {
        // A volatile node loses buffered-but-unprocessed data at
        // power-off; NV buffers persist.
        if (_cfg.mode == OperatingMode::NosVp)
            n->discardPendingPackages();
    }

    for (Node *n : scheduled) {
        if (!n->tryWake())
            continue;
        if (_cfg.mode == OperatingMode::NosVp) {
            // A normally-off VP only performs its burst when the
            // capacitor holds a complete unit of work; otherwise the
            // wake was just the RTC check.
            const EnergyClass cls = n->classify();
            if (cls == EnergyClass::Ready || cls == EnergyClass::Extra)
                n->samplePackage();
        } else {
            // NVP modes bank samples in the NV buffer whenever they
            // can; processing happens when energy allows.
            n->samplePackage();
        }
    }

    heal(scheduled);
    balance(scheduled);

    for (std::size_t l = 0; l < scheduled.size(); ++l) {
        if (!scheduled[l]->awake())
            continue;
        maybeServeRealTimeRequest(*scheduled[l], scheduled, l);
        executeAndTransmit(*scheduled[l], scheduled, l);
    }

    if (_probeLog)
        sampleProbe(t);
}

void
ChainEngine::beginSlotBatch(const std::vector<Node *> &scheduled, Tick t)
{
    const Tick slot_end = t + _cfg.slotInterval;
    _windowMemo.clear();

    // Integral of the shared unit stream over a window.  A slot
    // produces only a handful of distinct windows — the slot itself
    // plus the accrual gaps of multiplexed clones — so a linear scan
    // of the memo beats any hashing.
    const auto unitIntegral = [&](Tick from, Tick to) -> Energy {
        for (const IncomeWindow &w : _windowMemo)
            if (w.from == from && w.to == to)
                return w.unit;
        const Energy u = _sharedTrace->integrate(from, to);
        _windowMemo.push_back({from, to, u});
        return u;
    };
    // Exactly what the node's own trace would integrate:
    // ScaledTrace::integrate is base-integral * scale by definition.
    const auto nodeIncome = [&](const Node &n, Tick from,
                                Tick to) -> Energy {
        return unitIntegral(from, to) *
               static_cast<const ScaledTrace &>(n.trace()).scale();
    };

    for (Node *n : scheduled) {
        Energy gap = Energy::zero();
        const Tick last = n->lastAccrualTime();
        if (t > last)
            gap = nodeIncome(*n, last, t);
        n->beginSlotWithIncome(t, _cfg.slotInterval, gap,
                               nodeIncome(*n, t, slot_end));
    }
}

void
ChainEngine::sampleProbe(Tick now)
{
    // Everything read here is owned by this engine: node state, the
    // report shard, and cumulative node counters.  No RNG draws.
    double stored_mj = 0.0;
    std::uint64_t depletions = 0;
    for (const auto &node : _nodes) {
        stored_mj += node->capacitor().stored().millijoules();
        depletions += node->stats().depletionFailures.value();
    }
    const double chain_ideal =
        static_cast<double>(_cfg.nodesPerChain) *
        static_cast<double>(_cfg.slotCount());
    const double delivered = static_cast<double>(
        _state.report.packagesToCloud + _state.report.packagesInFog);

    _probeLog->storedEnergyMj.push(now, stored_mj);
    _probeLog->yieldFrac.push(
        now, chain_ideal > 0.0 ? delivered / chain_ideal : 0.0);
    _probeLog->balancedTasks.push(
        now, static_cast<double>(_state.report.tasksBalancedAway));
    _probeLog->depletionFailures.push(
        now, static_cast<double>(depletions));
}

void
ChainEngine::maybeServeRealTimeRequest(
    Node &node, const std::vector<Node *> &scheduled,
    std::size_t logical_idx)
{
    if (_cfg.realTimeRequestChance <= 0.0 ||
        !_state.rng.chance(_cfg.realTimeRequestChance))
        return;
    // The control node wants this node's current sample immediately:
    // raw, unbuffered, no fog processing (paper §5.1).
    const Node::Spec::Frame &raw = _spec.rawPackage;
    if (node.pendingPackages() == 0) {
        ++_state.report.rtRequestsMissed;
        return;
    }
    const auto tx = _state.loss.deliver(_cfg.loss, _state.rng);
    if (!node.payTransmit(raw.send, tx.paid) || !tx.delivered) {
        ++_state.report.rtRequestsMissed;
        return;
    }
    if (!relayToSink(scheduled, logical_idx, raw)) {
        ++_state.report.rtRequestsMissed;
        return;
    }
    node.addPendingPackages(-1);
    node.stats().packagesToCloud.increment();
    ++_state.report.packagesToCloud;
    ++_state.report.rtRequestsServed;
}

bool
ChainEngine::relayToSink(const std::vector<Node *> &scheduled,
                         std::size_t src, const Node::Spec::Frame &frame)
{
    if (!_cfg.hopByHopRelay || src == 0)
        return true; // MAC-abstracted direct delivery (paper default)

    // The packet walks the chain src-1, src-2, ..., 0.  Each awake
    // intermediate pays an RX and a TX; dead intermediates are skipped
    // (the orphan-scan bypass already re-linked the chain).  The final
    // receive at the sink is free (the sink is mains-powered in the
    // deployments the paper surveys).
    for (std::size_t hop = src; hop-- > 1;) {
        Node *relay = scheduled[hop];
        if (!relay->awake())
            continue; // bypassed
        if (!relay->payListen(frame.listen) ||
            !relay->payTransmit(frame.send)) {
            ++_state.report.relayDrops;
            return false;
        }
        if (!_state.loss.attempt(_cfg.loss, _state.rng)) {
            ++_state.report.relayDrops;
            return false;
        }
        ++_state.report.relayHops;
    }
    return true;
}

void
ChainEngine::heal(const std::vector<Node *> &scheduled)
{
    // Zigbee self-healing (§4): when B in A->B->C fails to start, A
    // broadcasts orphan_scan, C confirms, and the AssociatedDevList
    // updates so traffic bypasses B.  When B recovers it broadcasts
    // and the neighbours re-associate it.  Both handshakes cost the
    // *neighbours* (and the recovering node) short control exchanges,
    // at the prices of the chain's spec.
    const std::size_t n = scheduled.size();
    const Node::Spec::Frame &scan = _spec.orphanScan;
    const Node::Spec::Frame &confirm = _spec.scanConfirm;
    const Node::Spec::Frame &dev_list = _spec.devListEntry;

    auto neighbor = [&](std::size_t idx, int dir) -> Node * {
        // Nearest awake neighbour in the given direction.
        std::size_t j = idx;
        while (true) {
            if (dir < 0 && j == 0)
                return nullptr;
            if (dir > 0 && j + 1 >= n)
                return nullptr;
            j = dir < 0 ? j - 1 : j + 1;
            if (scheduled[j]->awake())
                return scheduled[j];
        }
    };

    for (std::size_t l = 0; l < n; ++l) {
        const bool now = scheduled[l]->awake();
        const bool before = _state.aliveLastSlot[l];
        if (before && !now) {
            // Newly dead: the upstream neighbour scans, the
            // downstream one confirms.
            Node *left = neighbor(l, -1);
            Node *right = neighbor(l, +1);
            if (left && right) {
                left->payControl(scan.send);
                left->payListen(confirm.listen);
                right->payListen(scan.listen);
                right->payControl(confirm.send);
                ++_state.report.orphanScans;
            }
        } else if (!before && now) {
            // Recovered: broadcast presence, neighbours re-associate.
            Node *left = neighbor(l, -1);
            scheduled[l]->payControl(scan.send);
            if (left) {
                left->payListen(scan.listen);
                left->payControl(dev_list.send);
            }
            scheduled[l]->payListen(dev_list.listen);
            ++_state.report.rejoins;
        }
        _state.aliveLastSlot[l] = now;
    }
}

void
ChainEngine::balance(std::vector<Node *> &scheduled)
{
    // The no-op policy costs nothing and moves nothing.
    if (_balancerIsNoop)
        return;

    // Engine-owned scratch: reuse the capacity.  One pass reads each
    // node's state and then pays its beacon: a beacon changes only its
    // own node, whose state was already read.
    std::vector<LbNodeState> &states = _lbStates;
    states.resize(scheduled.size());
    for (std::size_t i = 0; i < scheduled.size(); ++i) {
        Node *n = scheduled[i];
        LbNodeState &s = states[i];
        s.alive = n->awake();
        s.pendingTasks = n->pendingPackages();
        if (!s.alive) {
            // No policy reads a dead node's capacity or task cost (see
            // LbNodeState).  Its task is still priced for the slot, as
            // every scheduled node's is here: the cost memo is restart
            // state (NodeState::slotCostsValid).
            (void)n->taskCost();
            continue;
        }
        // Capacity = own queued work the node can actually complete
        // right now, plus headroom for received tasks.  A node only
        // becomes a donor when it genuinely cannot fund its own queue.
        // A node with a nearly drained capacitor offloads even work
        // it could technically fund: saving scarce stored energy for
        // future slots beats spending it now when a neighbour has
        // surplus (the efficiency-oriented goal of §3.2).
        const bool scarce = n->fillFraction() < 0.15;
        const bool can_own = !scarce &&
            n->pendingPackages() > 0 && n->canCompleteOnePackage();
        s.capacityTasks =
            n->spareTaskCapacity() +
            (can_own ? static_cast<double>(n->pendingPackages()) : 0.0);
        s.taskCost = n->relativeTaskCost();
        // Every awake participant shares its state once per round.
        // The share piggybacks on the slot-synchronization beacon the
        // node already exchanges, so it costs one short control
        // transmission.
        n->payControl(_spec.beacon);
    }

    Rng lb_rng = _state.rng.fork();
    // Engine-owned scratch outcome: balanceInto reuses the moves
    // capacity across slots instead of allocating a fresh vector.
    _balancer->balanceInto(states, lb_rng, _lbOutcome);
    const LbOutcome &outcome = _lbOutcome;
    _state.report.lbMessages +=
        static_cast<std::uint64_t>(outcome.messagesExchanged);
    _state.report.lbFailedRegions +=
        static_cast<std::uint64_t>(outcome.failedRegions);

    const Node::Spec::Frame &raw = _spec.rawPackage;
    for (const TaskMove &m : outcome.moves) {
        Node *from = scheduled[m.from];
        Node *to = scheduled[m.to];
        if (!from->awake() || !to->awake())
            continue;
        int shipped = 0;
        for (int k = 0; k < m.tasks; ++k) {
            if (from->pendingPackages() == 0)
                break;
            // Ship the raw package over the chain (virtual buffers,
            // loss applies per transfer).
            const auto tx = _state.loss.deliver(_cfg.loss, _state.rng);
            if (!from->payTransmit(raw.send, tx.paid))
                break;
            if (!tx.delivered) {
                ++_state.report.txLost;
                from->stats().txFailures.increment();
                from->addPendingPackages(-1);
                continue; // raw data lost in transit
            }
            if (!to->payListen(raw.listen))
                break;
            from->addPendingPackages(-1);
            to->addPendingPackages(1);
            ++shipped;
        }
        if (shipped > 0) {
            from->stats().tasksShipped.increment(
                static_cast<std::uint64_t>(shipped));
            to->stats().tasksReceived.increment(
                static_cast<std::uint64_t>(shipped));
            _state.report.tasksBalancedAway +=
                static_cast<std::uint64_t>(shipped);
        }
    }
}

void
ChainEngine::executeAndTransmit(Node &node,
                                const std::vector<Node *> &scheduled,
                                std::size_t logical_idx)
{
    const bool vp = _cfg.mode == OperatingMode::NosVp;
    const Node::Spec::Frame &result = _spec.resultPackage;

    // Process as many queued packages as energy and slot time allow,
    // transmitting each result.  The node only starts a task when the
    // whole process-and-ship pipeline is affordable, so compute energy
    // is never wasted on unshippable results.
    while (node.pendingPackages() > 0) {
        if (!vp && !node.canCompleteOnePackage())
            break;
        if (node.executeTasks(1) == 0)
            break;
        const auto tx = _state.loss.deliver(_cfg.loss, _state.rng);
        if (!node.payTransmit(result.send, tx.paid)) {
            // Processed but unshippable this slot.
            ++_state.report.txAborted;
            break;
        }
        if (!tx.delivered) {
            node.stats().txFailures.increment();
            ++_state.report.txLost;
            continue;
        }
        if (!relayToSink(scheduled, logical_idx, result))
            continue;
        if (vp) {
            node.stats().packagesToCloud.increment();
            ++_state.report.packagesToCloud;
        } else {
            node.stats().packagesInFog.increment();
            ++_state.report.packagesInFog;
        }
    }

    // Incidental computing (if enabled): packages that cannot get the
    // full fog treatment are summarized at reduced fidelity rather
    // than discarded (paper §5.1, citing [47]).
    while (!vp && node.pendingPackages() > 0 &&
           node.canCompleteIncidental()) {
        if (node.executeIncidentalTasks(1) == 0)
            break;
        const auto tx = _state.loss.deliver(_cfg.loss, _state.rng);
        if (!node.payTransmit(result.send, tx.paid)) {
            ++_state.report.txAborted;
            break;
        }
        if (!tx.delivered) {
            node.stats().txFailures.increment();
            ++_state.report.txLost;
            continue;
        }
        if (!relayToSink(scheduled, logical_idx, result))
            continue;
        ++_state.report.packagesIncidental;
    }

    // An NVP node with leftover transmit energy but no compute budget
    // (slot time exhausted, or income too bursty to fund a whole task)
    // falls back to shipping one raw package to the cloud — the small
    // cloud component of the NVP bars in Fig 10/11.  It requires
    // surplus energy so it never starves future fog work.
    if (!vp && node.pendingPackages() > 0 &&
        node.classify() == EnergyClass::Extra &&
        !node.canCompleteOnePackage()) {
        const auto tx = _state.loss.deliver(_cfg.loss, _state.rng);
        if (node.payTransmit(_spec.rawPackage.send, tx.paid) &&
            tx.delivered &&
            relayToSink(scheduled, logical_idx, _spec.rawPackage)) {
            node.addPendingPackages(-1);
            node.stats().packagesToCloud.increment();
            ++_state.report.packagesToCloud;
        }
    }
}

void
ChainEngine::finalizeShard()
{
    for (const auto &node : _nodes) {
        const NodeStats &st = node->stats();
        _state.report.wakeups += st.wakeups.value();
        _state.report.depletionFailures += st.depletionFailures.value();
        _state.report.packagesSampled += st.packagesSampled.value();
        _state.report.rtcResyncs += st.rtcResyncs.value();
        _state.report.capOverflowMj +=
            node->capacitor().overflowTotal().millijoules();
        _state.report.spentComputeMj += st.spentCompute.millijoules();
        _state.report.spentTxMj += st.spentTx.millijoules();
        _state.report.spentRxMj += st.spentRx.millijoules();
        _state.report.spentSampleMj += st.spentSample.millijoules();
        _state.report.spentWakeMj += st.spentWake.millijoules();
        _state.report.harvestedMj += st.harvestedTotal.millijoules();
    }
}

} // namespace neofog
