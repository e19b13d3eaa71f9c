#include "hw/processor.hh"

#include <cmath>

#include "sim/logging.hh"

namespace neofog {

void
SpendthriftPolicy::validate() const
{
    if (lowIncome >= highIncome)
        fatal("Spendthrift income corner points reversed");
    if (maxBenefit < minBenefit || minBenefit < 1.0)
        fatal("Spendthrift benefits must satisfy max >= min >= 1");
}

double
SpendthriftPolicy::frequencyScale(Power income) const
{
    // Scale frequency with income between 25% and 100%: a node seeing a
    // trickle clocks down so conversion losses shrink.
    if (income >= highIncome)
        return 1.0;
    if (income <= lowIncome)
        return 0.25;
    const double t = (income.watts() - lowIncome.watts()) /
                     (highIncome.watts() - lowIncome.watts());
    return 0.25 + 0.75 * t;
}

namespace {

/** The 8051 core at @p mhz: active power scales with the clock, so the
 *  energy per instruction stays at the measured 2.508 nJ. */
Processor
coreAt(double mhz)
{
    if (!(mhz > 0.0) || !std::isfinite(mhz))
        fatal("processor clock must be positive and finite, got ", mhz,
              " MHz");
    Processor p;
    p.frequencyHz = mhz * 1e6;
    p.activePower = Power::fromMilliwatts(0.209 * mhz);
    return p;
}

} // namespace

Processor
Processor::volatileMcu(double mhz)
{
    Processor p = coreAt(mhz);
    p.wakeLatency = 300 * kUs;
    p.wakeExtraEnergy = Energy::fromMicrojoules(150.0);
    return p;
}

Processor
Processor::nosNvp(double mhz)
{
    Processor p = coreAt(mhz);
    p.nonvolatile = true;
    p.wakeLatency = 32 * kUs;
    p.wakeExtraEnergy = Energy::fromNanojoules(80.0);
    p.backupLatency = 10 * kUs;
    p.backupEnergy = Energy::fromNanojoules(120.0);
    p.spendthrift = SpendthriftPolicy{};
    return p;
}

Processor
Processor::fiosNvp(double mhz)
{
    Processor p = nosNvp(mhz);
    p.wakeLatency = 7 * kUs;
    return p;
}

Energy
Processor::wakeEnergy() const
{
    return activePower * wakeLatency + wakeExtraEnergy;
}

} // namespace neofog
