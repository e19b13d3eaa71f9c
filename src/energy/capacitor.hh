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

#include <string_view>

#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

class CapacitorView;

/**
 * A leaky, bounded energy store.
 *
 * The state is five plain joule cells; every mutator runs through a
 * CapacitorView over them, so a standalone capacitor and a NodeShard
 * row execute the one copy of the arithmetic.
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

    explicit SuperCapacitor(const Config &cfg);

    /** Currently stored energy. */
    Energy stored() const { return Energy::fromJoules(_stored); }

    /** Capacity limit. */
    Energy capacity() const { return _cfg.capacity; }

    /** Stored energy as a fraction of capacity, in [0,1]. */
    double fillFraction() const
    { return _stored / _cfg.capacity.joules(); }

    /**
     * Add energy; amounts beyond capacity are rejected and counted.
     * @return Energy actually accepted.
     */
    Energy charge(Energy amount);

    /**
     * Remove energy if fully available.
     * @return true and deducts if stored() >= amount, else false with no
     *         state change.
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
    bool has(Energy amount) const { return _stored >= amount.joules(); }

    /** Set stored energy directly (testing / scenario setup). */
    void setStored(Energy e);

    /** Cumulative energy rejected because the capacitor was full. */
    Energy overflowTotal() const
    { return Energy::fromJoules(_overflowTotal); }

    /** Cumulative energy lost to self-leakage. */
    Energy leakedTotal() const { return Energy::fromJoules(_leakedTotal); }

    /** Cumulative energy accepted by charge(). */
    Energy chargedTotal() const
    { return Energy::fromJoules(_chargedTotal); }

    /** Cumulative energy removed by discharge/drain. */
    Energy dischargedTotal() const
    { return Energy::fromJoules(_dischargedTotal); }

    /** View over this capacitor's own cells. */
    CapacitorView view();

  private:
    Config _cfg;
    double _stored;
    double _chargedTotal = 0.0;
    double _overflowTotal = 0.0;
    double _leakedTotal = 0.0;
    double _dischargedTotal = 0.0;
};

/**
 * The capacitor arithmetic over five joule cells.
 *
 * A NodeShard (node_soa.hh) stores each node's capacitor state as
 * contiguous double columns, and SuperCapacitor holds the same five
 * cells as members; CapacitorView binds one set of them to a config
 * and runs charge / discharge / drain / leak on it.  This is the only
 * copy of that floating-point program, so a shard row and a
 * standalone capacitor fed the same inputs end on the same bits.
 *
 * Views are cheap value types: five cell pointers plus the config.
 * The config and the cells must outlive the view.
 */
class CapacitorView
{
  public:
    CapacitorView(const SuperCapacitor::Config &cfg, double &stored,
                  double &charged_total, double &overflow_total,
                  double &leaked_total, double &discharged_total)
        : _cfg(&cfg), _stored(&stored), _chargedTotal(&charged_total),
          _overflowTotal(&overflow_total), _leakedTotal(&leaked_total),
          _dischargedTotal(&discharged_total)
    {
    }

    /** Currently stored energy. */
    Energy stored() const { return Energy::fromJoules(*_stored); }

    /** Capacity limit. */
    Energy capacity() const { return _cfg->capacity; }

    /** Stored energy as a fraction of capacity, in [0,1]. */
    double fillFraction() const
    { return *_stored / _cfg->capacity.joules(); }

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
    bool has(Energy amount) const { return *_stored >= amount.joules(); }

    /** Set stored energy directly (testing / scenario setup). */
    void setStored(Energy e);

    /** Cumulative energy rejected because the capacitor was full. */
    Energy overflowTotal() const
    { return Energy::fromJoules(*_overflowTotal); }

    /** Cumulative energy lost to self-leakage. */
    Energy leakedTotal() const
    { return Energy::fromJoules(*_leakedTotal); }

    /** Cumulative energy accepted by charge(). */
    Energy chargedTotal() const
    { return Energy::fromJoules(*_chargedTotal); }

    /** Cumulative energy removed by discharge/drain. */
    Energy dischargedTotal() const
    { return Energy::fromJoules(*_dischargedTotal); }

    /** Snapshot support: stored level plus lifetime accounting. */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ioJoules(ar, "stored", *_stored);
        ioJoules(ar, "overflow_total", *_overflowTotal);
        ioJoules(ar, "leaked_total", *_leakedTotal);
        ioJoules(ar, "charged_total", *_chargedTotal);
        ioJoules(ar, "discharged_total", *_dischargedTotal);
    }

  private:
    /** Archive one joule cell under the Energy wire type. */
    template <class Archive>
    static void
    ioJoules(Archive &ar, std::string_view key, double &cell)
    {
        Energy v = Energy::fromJoules(cell);
        ar.io(key, v);
        cell = v.joules();
    }

    const SuperCapacitor::Config *_cfg;
    double *_stored;
    double *_chargedTotal;
    double *_overflowTotal;
    double *_leakedTotal;
    double *_dischargedTotal;
};

inline CapacitorView
SuperCapacitor::view()
{
    return {_cfg, _stored, _chargedTotal, _overflowTotal, _leakedTotal,
            _dischargedTotal};
}

} // namespace neofog

#endif // NEOFOG_ENERGY_CAPACITOR_HH
