/**
 * @file
 * Super-capacitor energy storage model.
 *
 * Every NEOFog node stores harvested energy in a super-capacitor (two,
 * actually: a small dedicated one keeps the RTC alive; see Rtc).  The
 * model tracks stored energy directly in joules with a capacity cap,
 * self-leakage, and accounting of energy rejected when full — the
 * "capacitor was frequently full, further energy was rejected" effect
 * that Fig 9 of the paper visualizes.
 */

#ifndef NEOFOG_ENERGY_CAPACITOR_HH
#define NEOFOG_ENERGY_CAPACITOR_HH

#include <algorithm>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/**
 * A leaky, bounded energy store: its configuration and its archived
 * State of five energy cells.  A node's State lives in its NodeState
 * (an RTC's dedicated cap in its Rtc::State); every mutation runs
 * through a CapacitorView over it.
 */
class SuperCapacitor
{
  public:
    struct Config
    {
        /** Usable energy capacity. */
        Energy capacity = Energy::fromMillijoules(600.0);
        /** Initial stored energy. */
        Energy initial = Energy::zero();
        /** Constant self-discharge power. */
        Power leakage = Power::fromMicrowatts(15.0);

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            ar.io("capacity", capacity);
            ar.io("initial", initial);
            ar.io("leakage", leakage);
        }
    };

    /** Stored level plus lifetime accounting: what a snapshot keeps. */
    struct State
    {
        Energy stored;
        Energy chargedTotal;
        Energy overflowTotal;
        Energy leakedTotal;
        Energy dischargedTotal;

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            ar.io("stored", stored);
            ar.io("overflow_total", overflowTotal);
            ar.io("leaked_total", leakedTotal);
            ar.io("charged_total", chargedTotal);
            ar.io("discharged_total", dischargedTotal);
        }
    };

    /**
     * The state a capacitor built from @p cfg starts in: charged to
     * cfg.initial, clean accounting.  Fatal on an invalid config.
     */
    static State initialState(const Config &cfg);
};

/**
 * The capacitor arithmetic over one SuperCapacitor::State.
 *
 * CapacitorView binds a State — a node's main cap in its NodeState
 * (see node/node_state.hh), an RTC's dedicated cap, or the storage of
 * an IntermittentExecution run — to a config and runs charge /
 * discharge / drain / leak on it.  This is the only copy of that
 * floating-point program.
 *
 * Views are cheap value types: a config pointer and a state pointer.
 * Both must outlive the view.
 */
class CapacitorView
{
  public:
    CapacitorView(const SuperCapacitor::Config &cfg,
                  SuperCapacitor::State &state)
        : _cfg(&cfg), _state(&state)
    {
    }

    /** Currently stored energy. */
    Energy stored() const { return _state->stored; }

    /** Capacity limit. */
    Energy capacity() const { return _cfg->capacity; }

    /** Stored energy as a fraction of capacity, in [0,1]. */
    double fillFraction() const
    { return _state->stored / _cfg->capacity; }

    /**
     * Add energy; amounts beyond capacity are rejected and counted.
     * @return Energy actually accepted.
     */
    Energy charge(Energy amount);

    /**
     * Remove energy if fully available.
     * @return true and deducts if stored() >= amount, else false with
     *         no state change.
     */
    bool tryDischarge(Energy amount);

    /**
     * Remove up to @p amount, draining to zero if necessary.
     * @return Energy actually removed.
     */
    Energy drain(Energy amount);

    /** Apply self-leakage for an elapsed duration. */
    void leak(Tick duration);

    /** Whether at least @p amount is available. */
    bool has(Energy amount) const { return _state->stored >= amount; }

    /** Cumulative energy rejected because the capacitor was full. */
    Energy overflowTotal() const { return _state->overflowTotal; }

    /** Cumulative energy lost to self-leakage. */
    Energy leakedTotal() const { return _state->leakedTotal; }

    /** Cumulative energy accepted by charge(). */
    Energy chargedTotal() const { return _state->chargedTotal; }

    /** Cumulative energy removed by discharge/drain. */
    Energy dischargedTotal() const { return _state->dischargedTotal; }

  private:
    const SuperCapacitor::Config *_cfg;
    SuperCapacitor::State *_state;
};

// The arithmetic below runs several times per node-slot from other
// libraries, so it lives here, inline (see DESIGN.md, "Performance:
// hot paths").

inline Energy
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

inline bool
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

inline Energy
CapacitorView::drain(Energy amount)
{
    NEOFOG_ASSERT(amount.joules() >= -1e-15, "draining negative energy");
    SuperCapacitor::State &s = *_state;
    const Energy removed = std::min(amount.clampedNonNegative(), s.stored);
    s.stored -= removed;
    s.dischargedTotal += removed;
    return removed;
}

inline void
CapacitorView::leak(Tick duration)
{
    NEOFOG_ASSERT(duration >= 0, "negative leak duration");
    SuperCapacitor::State &s = *_state;
    const Energy loss = std::min(_cfg->leakage * duration, s.stored);
    s.stored -= loss;
    s.leakedTotal += loss;
}

} // namespace neofog

#endif // NEOFOG_ENERGY_CAPACITOR_HH
