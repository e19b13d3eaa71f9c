#include "hw/rf.hh"

#include "sim/logging.hh"

namespace neofog {

RfModule::RfModule(const Config &cfg)
    : _cfg(cfg)
{
    if (_cfg.dataRateBps <= 0.0)
        fatal("RF data rate must be positive");
}

RfPhase
RfModule::rxCost(Tick duration) const
{
    NEOFOG_ASSERT(duration >= 0, "negative RX duration");
    return {duration, _cfg.rxPower * duration};
}

RfPhase
RfModule::idleCost(Tick duration) const
{
    NEOFOG_ASSERT(duration >= 0, "negative idle duration");
    return {duration, _cfg.idlePower * duration};
}

Tick
RfModule::airtime(std::size_t bytes) const
{
    const double seconds =
        static_cast<double>(bytes) * 8.0 / _cfg.dataRateBps;
    return ticksFromSeconds(seconds);
}

SoftwareRf::SoftwareRf()
    : SoftwareRf(SwConfig{})
{
}

SoftwareRf::SoftwareRf(const SwConfig &cfg)
    : RfModule(cfg.base), _sw(cfg)
{
}

SoftwareRf::SwConfig
SoftwareRf::nvmDirectConfig()
{
    SwConfig cfg;
    // NVP host restores the RF configuration image straight from
    // integrated NVM: 33 ms instead of 531 ms (paper Fig 4).
    cfg.initLatency = ticksFromMs(33.0);
    cfg.rejoinLatency = ticksFromMs(50.0);
    return cfg;
}

RfPhase
SoftwareRf::initCost() const
{
    RfPhase init{_sw.initLatency, _cfg.initPower * _sw.initLatency};
    // Rejoining the network needs the receiver on.
    RfPhase rejoin{_sw.rejoinLatency, _cfg.rxPower * _sw.rejoinLatency};
    return init + rejoin;
}

RfPhase
SoftwareRf::txCost(std::size_t bytes) const
{
    const Tick t = _sw.txFixed +
                   ticksFromMs(_sw.txPerByteMs *
                               static_cast<double>(bytes));
    return {t, _cfg.txPower * t};
}

std::string
SoftwareRf::name() const
{
    return _sw.initLatency <= ticksFromMs(50.0) ? "SW-RF(NVM)" : "SW-RF";
}

NvRfController::NvRfController()
    : NvRfController(NvConfig{})
{
}

NvRfController::NvRfController(const NvConfig &cfg)
    : RfModule(cfg.base), _nv(cfg)
{
}

RfPhase
NvRfController::initCost() const
{
    const Tick t = _configured ? _nv.selfInitLatency
                               : _nv.configureLatency;
    return {t, _cfg.initPower * t};
}

RfPhase
NvRfController::txCost(std::size_t bytes) const
{
    const Tick t = _nv.txFixed +
                   ticksFromMs(_nv.txPerByteMs *
                               static_cast<double>(bytes));
    return {t, _cfg.txPower * t};
}

RfPhase
NvRfController::configure()
{
    _configured = true;
    return {_nv.configureLatency, _cfg.initPower * _nv.configureLatency};
}

RfPhase
NvRfController::cloneFrom(const NvRfController &other)
{
    if (!other.configured())
        fatal("cloning from an unconfigured NVRF");
    _state = other._state;
    _configured = true;
    // State transfer: the register file + association list fits in a
    // small frame; receiving it costs one short RX window plus the
    // self-init to latch it.
    const Tick rx_window =
        airtime(64 + 4 * other._state.associatedDevList.size()) +
        ticksFromMs(2.0);
    RfPhase cost{rx_window, _cfg.rxPower * rx_window};
    cost += RfPhase{_nv.selfInitLatency,
                    _cfg.initPower * _nv.selfInitLatency};
    return cost;
}

} // namespace neofog
