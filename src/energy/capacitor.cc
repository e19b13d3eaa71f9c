#include "energy/capacitor.hh"

#include <algorithm>
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

Energy
CapacitorView::charge(Energy amount)
{
    NEOFOG_ASSERT(amount.joules() >= -1e-15, "charging negative energy");
    SuperCapacitor::State &s = *_state;
    const Energy amt = amount.clampedNonNegative();
    const Energy accepted = std::min(amt, _cfg->capacity - s.stored);
    s.stored += accepted;
    s.chargedTotal += accepted;
    s.overflowTotal += amt - accepted;
    return accepted;
}

bool
CapacitorView::tryDischarge(Energy amount)
{
    NEOFOG_ASSERT(amount.joules() >= -1e-15,
                  "discharging negative energy");
    SuperCapacitor::State &s = *_state;
    const Energy amt = amount.clampedNonNegative();
    if (s.stored < amt)
        return false;
    s.stored -= amt;
    s.dischargedTotal += amt;
    return true;
}

Energy
CapacitorView::drain(Energy amount)
{
    NEOFOG_ASSERT(amount.joules() >= -1e-15, "draining negative energy");
    SuperCapacitor::State &s = *_state;
    const Energy removed = std::min(amount.clampedNonNegative(), s.stored);
    s.stored -= removed;
    s.dischargedTotal += removed;
    return removed;
}

void
CapacitorView::leak(Tick duration)
{
    NEOFOG_ASSERT(duration >= 0, "negative leak duration");
    SuperCapacitor::State &s = *_state;
    const Energy loss = std::min(_cfg->leakage * duration, s.stored);
    s.stored -= loss;
    s.leakedTotal += loss;
}

} // namespace neofog
