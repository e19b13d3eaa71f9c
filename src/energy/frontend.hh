/**
 * @file
 * Harvesting front-end circuit models.
 *
 * The paper distinguishes two front ends (Fig 5):
 *
 *  - NOS front end (Fig 5a): harvester -> impedance matching -> single
 *    super-capacitor -> LDO -> load.  All energy makes a round trip
 *    through the capacitor; charging inefficiency plus capacitor leakage
 *    waste "more than half of the energy income" (WispCam observation).
 *
 *  - FIOS front end (Fig 5b): adds a switch (SW1) giving the NVP a
 *    direct source-to-load channel at ~90% efficiency (Wang et al.);
 *    only the RF/sensor portion is powered from the capacitor path.
 *
 * The model exposes per-path efficiencies; the node applies them when
 * banking income or costing intermittent computation.
 */

#ifndef NEOFOG_ENERGY_FRONTEND_HH
#define NEOFOG_ENERGY_FRONTEND_HH

#include "sim/units.hh"

namespace neofog {

/** Which front-end topology a node is built with. */
enum class FrontEndKind
{
    /** Single-channel charge-then-spend (Fig 5a). */
    Nos,
    /** Dual-channel with direct source-to-load path (Fig 5b). */
    Fios,
};

/**
 * Front-end circuit efficiencies.
 */
class FrontEnd
{
  public:
    struct Config
    {
        FrontEndKind kind = FrontEndKind::Nos;
        /** Harvester + rectifier conversion efficiency. */
        double harvestEfficiency = 0.80;
        /** Capacitor charge-path efficiency (into the cap). */
        double chargeEfficiency = 0.70;
        /** LDO / regulator efficiency (out of the cap). */
        double dischargeEfficiency = 0.85;
        /** Direct source-to-load efficiency (FIOS only). */
        double directEfficiency = 0.90;
    };

    explicit FrontEnd(const Config &cfg);

    FrontEndKind kind() const { return _cfg.kind; }

    /**
     * Energy banked into the capacitor from raw ambient income.
     * Applies harvester and charge-path losses.
     */
    Energy incomeToCap(Energy ambient) const;

    /**
     * Energy that must be drawn from the capacitor to deliver
     * @p load_energy at the load (applies LDO loss).
     */
    Energy capCostForLoad(Energy load_energy) const;

    /**
     * Energy delivered to the load directly from @p ambient income over
     * the direct channel (FIOS only; zero for NOS).
     */
    Energy incomeToLoadDirect(Energy ambient) const;

    /**
     * End-to-end efficiency advantage of the direct channel over the
     * charge/discharge round trip.  This is the core FIOS benefit: the
     * paper reports 2.2x-5x more forward progress for the same income.
     */
    double directAdvantage() const;

    const Config &config() const { return _cfg; }

    /** Paper-default NOS front end. */
    static FrontEnd makeNos();
    /** Paper-default FIOS dual-channel front end. */
    static FrontEnd makeFios();

  private:
    Config _cfg;
};

// The per-slot conversions below are called from other libraries on
// every node-slot, so they live here, inline (see DESIGN.md,
// "Performance: hot paths").

inline Energy
FrontEnd::incomeToCap(Energy ambient) const
{
    return ambient * (_cfg.harvestEfficiency * _cfg.chargeEfficiency);
}

inline Energy
FrontEnd::capCostForLoad(Energy load_energy) const
{
    return load_energy / _cfg.dischargeEfficiency;
}

inline Energy
FrontEnd::incomeToLoadDirect(Energy ambient) const
{
    if (_cfg.kind != FrontEndKind::Fios)
        return Energy::zero();
    return ambient * (_cfg.harvestEfficiency * _cfg.directEfficiency);
}

} // namespace neofog

#endif // NEOFOG_ENERGY_FRONTEND_HH
