#include "node/intermittent.hh"

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"

namespace neofog {

namespace {

/**
 * One intermittent-execution run: the per-run constants plus the
 * mutable machine state.  stepOnce() is the per-step update; run()
 * drives it for every step of the horizon.
 */
class StepMachine
{
  public:
    StepMachine(const Processor &cpu, const PowerTrace &trace,
                const IntermittentExecution::Config &cfg)
        : _cpu(cpu), _trace(trace), _cfg(cfg), _frontend(cfg.frontend),
          _fios(_frontend.kind() == FrontEndKind::Fios),
          _capState(SuperCapacitor::initialState(cfg.cap))
    {
        // Instructions executable per step while powered, and the
        // energy they need at the load.
        const double inst_per_second =
            cpu.frequencyHz / cpu.cyclesPerInstruction;
        _instPerStep = static_cast<std::uint64_t>(
            inst_per_second * secondsFromTicks(cfg.step));
        _loadPerStep = cpu.activePower * cfg.step;
    }

    /** Advance over [t, min(t + step, horizon)). */
    void stepOnce(Tick t, Tick horizon);

    /** Close out and return the result. */
    IntermittentExecution::Result finish();

  private:
    /** The storage arithmetic over this run's capacitor state. */
    CapacitorView cap() { return {_cfg.cap, _capState}; }

    const Processor &_cpu;
    const PowerTrace &_trace;
    const IntermittentExecution::Config &_cfg;
    FrontEnd _frontend;
    bool _fios;
    SuperCapacitor::State _capState;
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
        cap().charge(_frontend.incomeToCap(ambient * (1.0 - used_frac)));
        direct_available = direct_used;
    } else {
        cap().charge(_frontend.incomeToCap(ambient));
    }
    cap().leak(step_end - t);

    if (!_powered) {
        if (cap().stored() >= _cfg.onThreshold) {
            // Power-on: pay the wake overhead (restore for NVP,
            // restart + state reload for VP).
            const Energy wake =
                _frontend.capCostForLoad(_cpu.wakeEnergy());
            if (cap().tryDischarge(wake)) {
                _result.spent += wake;
                _pendingOverhead = _cpu.wakeLatency;
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
    if (cap().tryDischarge(from_cap)) {
        _result.spent += from_cap + direct_available;
        _result.activeTime += _cfg.step;
        if (_cpu.nonvolatile) {
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
    if (cap().stored() < _cfg.offThreshold) {
        ++_result.powerCycles;
        if (_cpu.nonvolatile) {
            // Distributed NV backup: small energy, state kept.
            const Energy backup =
                _frontend.capCostForLoad(_cpu.backupEnergy);
            _result.spent += cap().drain(backup);
            _result.overheadTime += _cpu.backupLatency;
        } else {
            // All uncommitted work is lost.
            _result.instructionsWasted += _uncommitted;
            _uncommitted = 0;
        }
        _powered = false;
    }
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
    if (cfg.taskSegmentInstructions == 0)
        fatal("intermittent execution task segment must be positive");

    StepMachine machine(cpu, trace, cfg);
    for (Tick t = 0; t < horizon; t += cfg.step)
        machine.stepOnce(t, horizon);
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
    const Processor nvp = Processor::fiosNvp();
    const Processor vp = Processor::volatileMcu();
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
