/**
 * @file
 * Real-time clock with its own priority-charged super-capacitor.
 *
 * §2.3: the RTC coordinates the common notion of time so synchronized
 * senders and receivers are co-active; it wakes every predefined
 * interval.  It is powered by a dedicated small super-capacitor with
 * higher charging priority than the main one, because losing RTC power
 * desynchronizes the node from the network's logical slots and resyncing
 * costs far more than a normal state restore (a long listen window).
 *
 * Nodes that lack energy for a slot wake at a *multiple* of the RTC
 * interval (not whenever they happen to have energy), which keeps them
 * aligned to network slots.  NVD4Q extends this with a per-clone phase
 * offset and wake-interval multiplier: a chain schedules one clone of
 * each logical node per slot (see ChainEngine::runSlot).
 */

#ifndef NEOFOG_HW_RTC_HH
#define NEOFOG_HW_RTC_HH

#include <cstdint>

#include "energy/capacitor.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/**
 * RTC model: the configuration and the archived state of the slot
 * clock and its dedicated super-capacitor.  Every node keeps its
 * State in its NodeState; RtcView runs the keep-alive arithmetic on
 * it.
 */
class Rtc
{
  public:
    struct Config
    {
        /** Wake-up / communication slot interval. */
        Tick interval = 12 * kSec;
        /** Continuous RTC draw from its dedicated cap. */
        Power draw = Power::fromMicrowatts(1.0);
        /** Dedicated cap: small but enough for hours of timekeeping. */
        SuperCapacitor::Config cap{
            Energy::fromMillijoules(40.0),
            Energy::fromMillijoules(40.0),
            Power::fromMicrowatts(0.5),
        };
        /** Charge priority share of income routed to the RTC cap. */
        double chargePriority = 0.02;
        /** Listen window needed to resynchronize after RTC death. */
        Tick resyncListen = ticksFromMs(500.0);
        /** Energy to resynchronize (RX listening, handshake). */
        Energy resyncEnergy = Energy::fromMillijoules(36.0);

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            ar.io("interval", interval);
            ar.io("draw", draw);
            ar.io("cap", cap);
            ar.io("charge_priority", chargePriority);
            ar.io("resync_listen", resyncListen);
            ar.io("resync_energy", resyncEnergy);
        }
    };

    /** Dedicated cap and sync bookkeeping: what a snapshot keeps. */
    struct State
    {
        SuperCapacitor::State cap;
        bool synchronized = true;
        std::uint64_t desyncs = 0; ///< times sync was lost

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            ar.io("cap", cap);
            ar.io("synchronized", synchronized);
            ar.io("desyncs", desyncs);
        }
    };

    /**
     * The state an RTC built from @p cfg starts in: synchronized, its
     * cap at cfg.cap.initial.  Fatal on an invalid config.
     */
    static State initialState(const Config &cfg);
};

/**
 * The RTC keep-alive arithmetic over one Rtc::State — a node's, in
 * its NodeState (node/node_state.hh).  advance() here is the only
 * copy of the program.
 */
class RtcView
{
  public:
    RtcView(const Rtc::Config &cfg, Rtc::State &state)
        : _cfg(&cfg), _state(&state)
    {
    }

    /** Whether the RTC still tracks network time. */
    bool synchronized() const { return _state->synchronized; }

    /** The slot interval. */
    Tick interval() const { return _cfg->interval; }

    /**
     * Advance wall-clock by @p duration: drains the RTC cap (plus
     * leakage) and desynchronizes if it empties.
     * @param income Energy routed to the RTC cap during the period
     *        (already scaled by the charge priority).
     */
    void advance(Tick duration, Energy income);

    /** Record a successful resynchronization. */
    void resynchronize() { _state->synchronized = true; }

    /** Dedicated capacitor (for inspection / tests). */
    CapacitorView cap() const { return {_cfg->cap, _state->cap}; }

    /** Times the RTC lost synchronization. */
    std::uint64_t desyncCount() const { return _state->desyncs; }

    const Rtc::Config &config() const { return *_cfg; }

  private:
    const Rtc::Config *_cfg;
    Rtc::State *_state;
};

// Runs once per node-slot from the node library, so it lives here,
// inline (see DESIGN.md, "Performance: hot paths").
inline void
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

#endif // NEOFOG_HW_RTC_HH
