#include "hw/rf.hh"

#include "sim/logging.hh"

namespace neofog {

Radio
Radio::software()
{
    Radio r;
    r.initLatency = ticksFromMs(531.0);
    r.rejoinLatency = ticksFromMs(200.0);
    // 255 ms fixed, then 1.44 + 0.032 ms per byte.
    r.txFixed = ticksFromMs(255.0);
    r.txPerByteMs = 1.472;
    return r;
}

Radio
Radio::nvmDirect()
{
    Radio r = software();
    // The NVP host restores the RF configuration image straight from
    // integrated NVM: 33 ms instead of 531 ms (paper Fig 4).
    r.initLatency = ticksFromMs(33.0);
    r.rejoinLatency = ticksFromMs(50.0);
    return r;
}

Radio
Radio::nvrf()
{
    Radio r;
    r.nonvolatile = true;
    r.initLatency = ticksFromMs(1.2);
    r.configureLatency = ticksFromMs(28.0);
    // NVRF start + sync (1.74 + 0.156 ms), then 0.216 + 0.032 ms per
    // byte.
    r.txFixed = ticksFromMs(1.896);
    r.txPerByteMs = 0.248;
    return r;
}

RfPhase
Radio::initCost() const
{
    // Rejoining the network needs the receiver on; the NVRF keeps its
    // association and has no rejoin.
    return RfPhase{initLatency, initPower * initLatency} +
           rxCost(rejoinLatency);
}

RfPhase
Radio::configureCost() const
{
    return {configureLatency, initPower * configureLatency};
}

RfPhase
Radio::idleCost(Tick duration) const
{
    NEOFOG_ASSERT(duration >= 0, "negative idle duration");
    return {duration, idlePower * duration};
}

} // namespace neofog
