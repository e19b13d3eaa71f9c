#include "energy/capacitor.hh"

#include <cmath>

#include "sim/logging.hh"

namespace neofog {

SuperCapacitor::State
SuperCapacitor::initialState(const Config &cfg)
{
    // Written so NaN fails them too.
    const double capacity = cfg.capacity.joules();
    if (!(capacity > 0.0 && std::isfinite(capacity)))
        fatal("super-capacitor capacity must be positive and finite, "
              "got ", capacity, " J");
    if (!(cfg.initial.joules() >= 0.0 && cfg.initial <= cfg.capacity))
        fatal("super-capacitor initial charge must be in [0, capacity], "
              "got ", cfg.initial.joules(), " J");
    requireFiniteNonNegative(cfg.leakage.watts(),
                             "super-capacitor leakage (W)");
    State state;
    state.stored = cfg.initial;
    return state;
}

} // namespace neofog
