#include "hw/rtc.hh"

#include "sim/logging.hh"

namespace neofog {

Rtc::State
Rtc::initialState(const Config &cfg)
{
    if (cfg.interval <= 0)
        fatal("RTC interval must be positive");
    if (cfg.chargePriority < 0.0 || cfg.chargePriority > 1.0)
        fatal("RTC charge priority must be in [0,1]");
    State state;
    state.cap = SuperCapacitor::initialState(cfg.cap);
    return state;
}

Rtc::Rtc(const Config &cfg)
    : _cfg(cfg), _state(initialState(cfg))
{
}

void
Rtc::advance(Tick duration, Energy income)
{
    RtcView(_cfg, _state).advance(duration, income);
}

Tick
alignedWakeAfter(Tick interval, Tick now, int phase_offset,
                 int interval_multiplier)
{
    NEOFOG_ASSERT(interval_multiplier >= 1, "interval multiplier >= 1");
    NEOFOG_ASSERT(phase_offset >= 0 && phase_offset < interval_multiplier,
                  "phase offset must be in [0, multiplier)");
    const Tick stride = interval * interval_multiplier;
    const Tick offset = interval * phase_offset;
    // Smallest k*stride + offset strictly greater than now.
    Tick k = (now - offset) / stride;
    Tick candidate = k * stride + offset;
    while (candidate <= now)
        candidate += stride;
    return candidate;
}

Tick
Rtc::nextWake(Tick now, int phase_offset, int interval_multiplier) const
{
    return alignedWakeAfter(_cfg.interval, now, phase_offset,
                            interval_multiplier);
}

void
RtcView::advance(Tick duration, Energy income)
{
    NEOFOG_ASSERT(duration >= 0, "negative RTC advance");
    CapacitorView rtc_cap = cap();
    rtc_cap.charge(income);
    rtc_cap.leak(duration);
    const Energy need = _cfg->draw * duration;
    if (!rtc_cap.tryDischarge(need)) {
        rtc_cap.drain(need);
        if (_state->synchronized) {
            _state->synchronized = false;
            ++_state->desyncs;
        }
    }
}

} // namespace neofog
