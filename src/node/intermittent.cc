#include "node/intermittent.hh"

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"

namespace neofog {

namespace {

/**
 * One intermittent-execution run: the per-run constants plus the
 * mutable machine state.  stepOnce() is the single authoritative
 * per-step update — the stepped reference drives it for every step,
 * the fast-forward path only skips step spans it can prove would pass
 * through stepOnce() with nothing eventful happening (no threshold
 * crossing, no wake, no brown-out, no capacitor rail clamping), using
 * step-anchored closed forms for the state after the jump.
 */
class StepMachine
{
  public:
    StepMachine(const Processor &cpu, const PowerTrace &trace,
                const IntermittentExecution::Config &cfg)
        : _cpu(cpu), _trace(trace), _cfg(cfg), _frontend(cfg.frontend),
          _fios(_frontend.kind() == FrontEndKind::Fios), _cap(cfg.cap)
    {
        // Instructions executable per step while powered, and the
        // energy they need at the load.
        const double inst_per_second = cpu.config().frequencyHz /
                                       cpu.config().cyclesPerInstruction;
        _instPerStep = static_cast<std::uint64_t>(
            inst_per_second * secondsFromTicks(cfg.step));
        _loadPerStep = cpu.config().activePower * cfg.step;
    }

    /** The exact per-step update (the reference semantics). */
    void stepOnce(Tick t, Tick horizon);

    /**
     * Jump up to @p avail whole steps starting at @p t, all inside
     * one constant-income trace segment.
     * @return Steps consumed (0 = caller must run stepOnce instead).
     */
    std::int64_t tryFastForward(Tick t, std::int64_t avail);

    /** Close out and return the result. */
    IntermittentExecution::Result finish();

  private:
    /** Largest n in [1, avail] with steady(k) for all k <= n. */
    template <typename Pred>
    static std::int64_t maxSteady(Pred steady, std::int64_t avail);

    /** Jump n steps: advance the capacitor to the anchored value. */
    void commitStored(double s_n);

    const Processor &_cpu;
    const PowerTrace &_trace;
    const IntermittentExecution::Config &_cfg;
    FrontEnd _frontend;
    bool _fios;
    SuperCapacitor _cap;
    IntermittentExecution::Result _result;

    std::uint64_t _instPerStep = 0;
    Energy _loadPerStep;

    bool _powered = false;          ///< executing (past restore/restart)
    Tick _pendingOverhead = 0;      ///< wake overhead still to serve
    std::uint64_t _uncommitted = 0; ///< VP progress since last segment
};

void
StepMachine::stepOnce(Tick t, Tick horizon)
{
    // Harvest this step.  A FIOS node that is executing feeds the
    // load straight from the harvester (the direct channel) and
    // only banks the surplus; otherwise all income takes the
    // charge path.
    const Tick step_end = std::min<Tick>(t + _cfg.step, horizon);
    const Energy ambient = _trace.integrate(t, step_end);
    _result.harvested += ambient;
    Energy direct_available = Energy::zero();
    if (_fios && _powered && _pendingOverhead <= 0) {
        direct_available = _frontend.incomeToLoadDirect(ambient);
        const Energy direct_used =
            std::min(direct_available, _loadPerStep);
        // Bank the income fraction the direct channel didn't use.
        const double used_frac = direct_available.joules() > 0.0
            ? direct_used.joules() / direct_available.joules()
            : 0.0;
        _cap.charge(_frontend.incomeToCap(ambient * (1.0 - used_frac)));
        direct_available = direct_used;
    } else {
        _cap.charge(_frontend.incomeToCap(ambient));
    }
    _cap.leak(step_end - t);

    if (!_powered) {
        if (_cap.stored() >= _cfg.onThreshold) {
            // Power-on: pay the wake overhead (restore for NVP,
            // restart + state reload for VP).
            const Energy wake =
                _frontend.capCostForLoad(_cpu.wakeEnergy());
            if (_cap.tryDischarge(wake)) {
                _result.spent += wake;
                _pendingOverhead = _cpu.wakeLatency();
                _powered = true;
            }
        }
        return;
    }

    // Serve wake/backup overhead time before executing.
    if (_pendingOverhead > 0) {
        const Tick served = std::min<Tick>(_pendingOverhead, _cfg.step);
        _pendingOverhead -= served;
        _result.overheadTime += served;
        if (served >= _cfg.step)
            return;
    }

    // Execute for the remainder of the step if energy allows:
    // direct channel first, the capacitor for the rest.
    const Energy from_cap = _frontend.capCostForLoad(
        (_loadPerStep - direct_available).clampedNonNegative());
    if (_cap.tryDischarge(from_cap)) {
        _result.spent += from_cap + direct_available;
        _result.activeTime += _cfg.step;
        if (_cpu.isNonvolatile()) {
            _result.instructionsCompleted += _instPerStep;
        } else {
            _uncommitted += _instPerStep;
            // Commit whole segments.
            while (_uncommitted >= _cfg.taskSegmentInstructions) {
                _uncommitted -= _cfg.taskSegmentInstructions;
                _result.instructionsCompleted +=
                    _cfg.taskSegmentInstructions;
            }
        }
    }

    // Brown-out check.
    if (_cap.stored() < _cfg.offThreshold) {
        ++_result.powerCycles;
        if (_cpu.isNonvolatile()) {
            // Distributed NV backup: small energy, state kept.
            const Energy backup =
                _frontend.capCostForLoad(_cpu.backupEnergy());
            _result.spent += _cap.drain(backup);
            _result.overheadTime += _cpu.backupLatency();
        } else {
            // All uncommitted work is lost.
            _result.instructionsWasted += _uncommitted;
            _uncommitted = 0;
        }
        _powered = false;
    }
}

template <typename Pred>
std::int64_t
StepMachine::maxSteady(Pred steady, std::int64_t avail)
{
    if (avail < 1 || !steady(1))
        return 0;
    // Every steady() predicate is monotone in k over the anchored
    // linear state (given steady(1) holds, see callers), so the
    // steady prefix is contiguous and binary search finds its end.
    std::int64_t lo = 1;
    std::int64_t hi = avail;
    while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo + 1) / 2;
        if (steady(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

void
StepMachine::commitStored(double s_n)
{
    // The anchored value can carry sub-ulp dust past the rails the
    // steadiness guards proved it stays within; clamp that dust only.
    const double cap_j = _cfg.cap.capacity.joules();
    _cap.setStored(
        Energy::fromJoules(std::clamp(s_n, 0.0, cap_j)));
}

std::int64_t
StepMachine::tryFastForward(Tick t, std::int64_t avail)
{
    // Per-step constants inside this constant-income segment.  The
    // values match what stepOnce() would compute for each step: the
    // trace is flat across [t, t + avail*step), so the per-step
    // integral (and every quantity derived from it) is one double.
    const Energy ambient = _trace.integrate(t, t + _cfg.step);
    const double cap_j = _cfg.cap.capacity.joules();
    const double leak_j = (_cfg.cap.leakage * _cfg.step).joules();
    const double s0 = _cap.stored().joules();

    // Anchored state: a(k) = stored after k whole steps, assuming no
    // clamp engages and the same branch repeats — exactly what the
    // steadiness predicates verify before a jump is allowed.
    const auto anchored = [s0](double delta, std::int64_t k) {
        return s0 + static_cast<double>(k) * delta;
    };

    if (!_powered) {
        // Dead charging: steps that provably end below the turn-on
        // threshold with neither capacitor rail clamping.
        const double charge_j =
            _frontend.incomeToCap(ambient).joules();
        const double delta = charge_j - leak_j;
        const double on_j = _cfg.onThreshold.joules();
        const auto steady = [&](std::int64_t k) {
            const double pre_leak = anchored(delta, k - 1) + charge_j;
            return anchored(delta, k) < on_j && pre_leak <= cap_j &&
                   pre_leak >= leak_j;
        };
        const std::int64_t n = maxSteady(steady, avail);
        if (n <= 0)
            return 0;
        commitStored(anchored(delta, n));
        _result.harvested += ambient * static_cast<double>(n);
        return n;
    }

    if (_pendingOverhead >= _cfg.step) {
        // Whole-step overhead service: income banks, time burns.
        const double charge_j =
            _frontend.incomeToCap(ambient).joules();
        const double delta = charge_j - leak_j;
        const std::int64_t whole_overhead = _pendingOverhead / _cfg.step;
        const auto steady = [&](std::int64_t k) {
            const double pre_leak = anchored(delta, k - 1) + charge_j;
            return pre_leak <= cap_j && pre_leak >= leak_j;
        };
        const std::int64_t n =
            maxSteady(steady, std::min(avail, whole_overhead));
        if (n <= 0)
            return 0;
        commitStored(anchored(delta, n));
        _result.harvested += ambient * static_cast<double>(n);
        _result.overheadTime += n * _cfg.step;
        _pendingOverhead -= n * _cfg.step;
        return n;
    }
    if (_pendingOverhead > 0)
        return 0; // mixed overhead/execute step: run it exactly

    // Steady execution: every step charges (post direct-channel
    // split), leaks, funds the load from the capacitor, and stays
    // above the brown-out threshold.
    Energy direct_used = Energy::zero();
    double charge_j = 0.0;
    if (_fios) {
        const Energy direct_available =
            _frontend.incomeToLoadDirect(ambient);
        direct_used = std::min(direct_available, _loadPerStep);
        const double used_frac = direct_available.joules() > 0.0
            ? direct_used.joules() / direct_available.joules()
            : 0.0;
        charge_j =
            _frontend.incomeToCap(ambient * (1.0 - used_frac)).joules();
    } else {
        charge_j = _frontend.incomeToCap(ambient).joules();
    }
    const Energy from_cap = _frontend.capCostForLoad(
        (_loadPerStep - direct_used).clampedNonNegative());
    const double f = from_cap.joules();
    const double delta = charge_j - leak_j - f;
    const double off_j = _cfg.offThreshold.joules();
    const auto steady = [&](std::int64_t k) {
        const double before = anchored(delta, k - 1);
        const double pre_leak = before + charge_j;
        const double pre_discharge = before + (charge_j - leak_j);
        return pre_discharge >= f && anchored(delta, k) >= off_j &&
               pre_leak <= cap_j && pre_leak >= leak_j;
    };
    const std::int64_t n = maxSteady(steady, avail);
    if (n <= 0)
        return 0;
    commitStored(anchored(delta, n));
    _result.harvested += ambient * static_cast<double>(n);
    _result.spent += (from_cap + direct_used) * static_cast<double>(n);
    _result.activeTime += n * _cfg.step;
    const std::uint64_t inst =
        _instPerStep * static_cast<std::uint64_t>(n);
    if (_cpu.isNonvolatile()) {
        _result.instructionsCompleted += inst;
    } else {
        // Same whole-segment commits stepOnce() would make, folded.
        _uncommitted += inst;
        const std::uint64_t seg = _cfg.taskSegmentInstructions;
        _result.instructionsCompleted += (_uncommitted / seg) * seg;
        _uncommitted %= seg;
    }
    return n;
}

IntermittentExecution::Result
StepMachine::finish()
{
    // Work still uncommitted at the horizon never completed.
    _result.instructionsWasted += _uncommitted;
    return _result;
}

} // namespace

IntermittentExecution::Result
IntermittentExecution::run(const Processor &cpu, const PowerTrace &trace,
                           Tick horizon, const Config &cfg)
{
    if (cfg.offThreshold >= cfg.onThreshold)
        fatal("intermittent execution thresholds reversed");
    if (cfg.step <= 0)
        fatal("intermittent execution step must be positive");

    StepMachine machine(cpu, trace, cfg);

    if (!cfg.fastForward) {
        for (Tick t = 0; t < horizon; t += cfg.step)
            machine.stepOnce(t, horizon);
        return machine.finish();
    }

    Tick t = 0;
    while (t < horizon) {
        if (t + cfg.step <= horizon) {
            // Whole steps fully inside the current constant-income
            // trace segment are fast-forward candidates; everything
            // else (segment straddles, the final partial step) runs
            // the exact per-step update.
            const Tick seg_end =
                std::min<Tick>(trace.constantLevelUntil(t), horizon);
            const std::int64_t avail =
                seg_end > t ? (seg_end - t) / cfg.step : 0;
            if (avail >= 2) {
                const std::int64_t n =
                    machine.tryFastForward(t, avail);
                if (n > 0) {
                    t += n * cfg.step;
                    continue;
                }
            }
        }
        machine.stepOnce(t, horizon);
        t += cfg.step;
    }
    return machine.finish();
}

IntermittentExecution::Result
IntermittentExecution::run(const Processor &cpu, const PowerTrace &trace,
                           Tick horizon)
{
    return run(cpu, trace, horizon, Config{});
}

double
IntermittentExecution::progressRatio(const PowerTrace &trace,
                                     Tick horizon, const Config &cfg)
{
    // The paper's 2.2x-5x compares the *deployed alternatives*: a
    // volatile processor behind a NOS single-channel front end vs an
    // NVP behind the FIOS dual-channel front end (§2.2).
    NvProcessor nvp{NvProcessor::fiosConfig()};
    VolatileProcessor vp;
    Config nv_cfg = cfg;
    nv_cfg.frontend = FrontEnd::makeFios().config();
    Config vp_cfg = cfg;
    vp_cfg.frontend = FrontEnd::makeNos().config();
    const Result nv = run(nvp, trace, horizon, nv_cfg);
    const Result v = run(vp, trace, horizon, vp_cfg);
    if (v.instructionsCompleted == 0)
        return nv.instructionsCompleted > 0 ? 1e9 : 1.0;
    return static_cast<double>(nv.instructionsCompleted) /
           static_cast<double>(v.instructionsCompleted);
}

double
IntermittentExecution::progressRatio(const PowerTrace &trace,
                                     Tick horizon)
{
    return progressRatio(trace, horizon, Config{});
}

} // namespace neofog
