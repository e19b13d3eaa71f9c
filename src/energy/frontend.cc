#include "energy/frontend.hh"

#include "sim/logging.hh"

namespace neofog {

FrontEnd::FrontEnd(const Config &cfg)
    : _cfg(cfg)
{
    auto check = [](double v, const char *name) {
        if (!(v > 0.0 && v <= 1.0)) // NaN fails it too
            fatal("front-end efficiency out of (0,1]: ", name, "=", v);
    };
    check(_cfg.harvestEfficiency, "harvestEfficiency");
    check(_cfg.chargeEfficiency, "chargeEfficiency");
    check(_cfg.dischargeEfficiency, "dischargeEfficiency");
    check(_cfg.directEfficiency, "directEfficiency");
}

double
FrontEnd::directAdvantage() const
{
    const double round_trip =
        _cfg.chargeEfficiency * _cfg.dischargeEfficiency;
    return _cfg.directEfficiency / round_trip;
}

FrontEnd
FrontEnd::makeNos()
{
    Config cfg;
    cfg.kind = FrontEndKind::Nos;
    return FrontEnd(cfg);
}

FrontEnd
FrontEnd::makeFios()
{
    Config cfg;
    cfg.kind = FrontEndKind::Fios;
    // Wang et al. [77] dual-channel design: ~90% source-to-load.
    cfg.directEfficiency = 0.90;
    return FrontEnd(cfg);
}

} // namespace neofog
