#include "hw/rtc.hh"

#include "sim/logging.hh"

namespace neofog {

Rtc::State
Rtc::initialState(const Config &cfg)
{
    if (cfg.interval <= 0)
        fatal("RTC interval must be positive");
    // Written so NaN fails them too.
    if (!(cfg.chargePriority >= 0.0 && cfg.chargePriority <= 1.0))
        fatal("RTC charge priority must be in [0,1], got ",
              cfg.chargePriority);
    requireFiniteNonNegative(cfg.draw.watts(), "RTC draw (W)");
    requireFiniteNonNegative(cfg.resyncEnergy.joules(),
                             "RTC resync energy (J)");
    State state;
    state.cap = SuperCapacitor::initialState(cfg.cap);
    return state;
}

} // namespace neofog
