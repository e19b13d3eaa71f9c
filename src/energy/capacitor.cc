#include "energy/capacitor.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace neofog {

SuperCapacitor::SuperCapacitor(const Config &cfg)
    : _cfg(cfg), _stored(cfg.initial.joules())
{
    if (_cfg.capacity.joules() <= 0.0)
        fatal("super-capacitor capacity must be positive");
    if (_cfg.initial > _cfg.capacity)
        fatal("super-capacitor initial charge exceeds capacity");
    if (_cfg.initial.joules() < 0.0)
        fatal("super-capacitor initial charge negative");
}

Energy
SuperCapacitor::charge(Energy amount)
{
    return view().charge(amount);
}

bool
SuperCapacitor::tryDischarge(Energy amount)
{
    return view().tryDischarge(amount);
}

Energy
SuperCapacitor::drain(Energy amount)
{
    return view().drain(amount);
}

void
SuperCapacitor::leak(Tick duration)
{
    view().leak(duration);
}

void
SuperCapacitor::setStored(Energy e)
{
    view().setStored(e);
}

Energy
CapacitorView::charge(Energy amount)
{
    NEOFOG_ASSERT(amount.joules() >= -1e-15, "charging negative energy");
    const double amt = amount.clampedNonNegative().joules();
    const double room = _cfg->capacity.joules() - *_stored;
    const double accepted = std::min(amt, room);
    *_stored += accepted;
    *_chargedTotal += accepted;
    *_overflowTotal += amt - accepted;
    return Energy::fromJoules(accepted);
}

bool
CapacitorView::tryDischarge(Energy amount)
{
    NEOFOG_ASSERT(amount.joules() >= -1e-15,
                  "discharging negative energy");
    const double amt = amount.clampedNonNegative().joules();
    if (*_stored < amt)
        return false;
    *_stored -= amt;
    *_dischargedTotal += amt;
    return true;
}

Energy
CapacitorView::drain(Energy amount)
{
    NEOFOG_ASSERT(amount.joules() >= -1e-15, "draining negative energy");
    const double amt = amount.clampedNonNegative().joules();
    const double removed = std::min(amt, *_stored);
    *_stored -= removed;
    *_dischargedTotal += removed;
    return Energy::fromJoules(removed);
}

void
CapacitorView::leak(Tick duration)
{
    NEOFOG_ASSERT(duration >= 0, "negative leak duration");
    const double loss =
        std::min((_cfg->leakage * duration).joules(), *_stored);
    *_stored -= loss;
    *_leakedTotal += loss;
}

void
CapacitorView::setStored(Energy e)
{
    if (e.joules() < 0.0 || e > _cfg->capacity)
        fatal("setStored outside [0, capacity]");
    *_stored = e.joules();
}

} // namespace neofog
