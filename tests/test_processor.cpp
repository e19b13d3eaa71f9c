/**
 * @file
 * Tests for the processor parts and the Spendthrift policy.
 */

#include <gtest/gtest.h>

#include <limits>
#include <type_traits>

#include "hw/processor.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

// A part is a value: no vtable, nothing to downcast.
static_assert(!std::is_polymorphic_v<Processor>);

TEST(Processor, InstructionEnergyMatchesTable2)
{
    // 0.209 mW 8051 @ 1 MHz, 12 clocks/instruction => 2.508 nJ/inst.
    const Processor nvp = Processor::nosNvp();
    EXPECT_NEAR(nvp.computeEnergy(1).nanojoules(), 2.508, 1e-6);
    // Bridge health: 545 instructions -> 1366.86 nJ (Table 2).
    EXPECT_NEAR(nvp.computeEnergy(545).nanojoules(), 1366.86, 0.01);
    // Pattern matching: 1670 -> 4188.36 nJ.
    EXPECT_NEAR(nvp.computeEnergy(1670).nanojoules(), 4188.36, 0.01);
}

TEST(Processor, ComputeTimeAtOneMegahertz)
{
    const Processor nvp = Processor::nosNvp();
    // 12 cycles per instruction at 1 MHz = 12 us per instruction.
    EXPECT_EQ(nvp.computeTime(1), 12);
    EXPECT_EQ(nvp.computeTime(1000), 12000);
}

TEST(Processor, EnergyPerInstructionIndependentOfClock)
{
    const Processor fast = Processor::nosNvp(50.0);
    EXPECT_NEAR(fast.computeEnergy(1).nanojoules(), 2.508, 0.01);
    // But 50x faster.
    const Processor slow = Processor::nosNvp();
    EXPECT_NEAR(static_cast<double>(slow.computeTime(100000)) /
                    static_cast<double>(fast.computeTime(100000)),
                50.0, 0.5);
}

TEST(Processor, WakeLatenciesMatchPaper)
{
    EXPECT_EQ(Processor::volatileMcu().wakeLatency, 300 * kUs);
    EXPECT_EQ(Processor::nosNvp().wakeLatency, 32 * kUs);
    EXPECT_EQ(Processor::fiosNvp().wakeLatency, 7 * kUs);
}

TEST(Processor, VpWakeIncludesFlashReload)
{
    const Processor vp = Processor::volatileMcu();
    const Processor nvp = Processor::nosNvp();
    // The VP reloads configuration from flash: orders of magnitude
    // more wake energy than an NVP restore.
    EXPECT_GT(vp.wakeEnergy().joules(), 100.0 * nvp.wakeEnergy().joules());
}

TEST(Processor, NonvolatilityFlags)
{
    const Processor vp = Processor::volatileMcu();
    const Processor nvp = Processor::nosNvp();
    EXPECT_FALSE(vp.nonvolatile);
    EXPECT_TRUE(nvp.nonvolatile);
    EXPECT_TRUE(Processor::fiosNvp().nonvolatile);
    EXPECT_EQ(vp.backupLatency, 0);
    EXPECT_GT(nvp.backupLatency, 0);
    EXPECT_GT(nvp.backupEnergy.joules(), 0.0);
    // Spendthrift is an NVP policy.
    EXPECT_FALSE(vp.spendthrift);
    EXPECT_TRUE(nvp.spendthrift);
}

TEST(Processor, RejectsBadConfig)
{
    for (const double mhz : {0.0, -16.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        EXPECT_THROW(Processor::volatileMcu(mhz), FatalError) << mhz;
        EXPECT_THROW(Processor::nosNvp(mhz), FatalError) << mhz;
        EXPECT_THROW(Processor::fiosNvp(mhz), FatalError) << mhz;
    }
}

TEST(Spendthrift, BenefitMonotonicInIncome)
{
    const SpendthriftPolicy policy;
    double prev = 1e9;
    for (double mw = 0.1; mw <= 15.0; mw += 0.5) {
        const double b = policy.benefit(Power::fromMilliwatts(mw));
        EXPECT_LE(b, prev + 1e-12);
        prev = b;
    }
}

TEST(Spendthrift, CornerValues)
{
    SpendthriftPolicy policy;
    policy.lowIncome = 1.0_mW;
    policy.highIncome = 10.0_mW;
    policy.maxBenefit = 2.0;
    policy.minBenefit = 1.0;
    policy.validate();
    EXPECT_DOUBLE_EQ(policy.benefit(0.5_mW), 2.0);
    EXPECT_DOUBLE_EQ(policy.benefit(10.0_mW), 1.0);
    EXPECT_DOUBLE_EQ(policy.benefit(100.0_mW), 1.0);
    EXPECT_NEAR(policy.benefit(5.5_mW), 1.5, 1e-12);
}

TEST(Spendthrift, FrequencyScaleBounds)
{
    const SpendthriftPolicy policy;
    const double lo = policy.frequencyScale(Power::fromMicrowatts(1.0));
    const double hi = policy.frequencyScale(Power::fromMilliwatts(50.0));
    EXPECT_NEAR(lo, 0.25, 1e-12);
    EXPECT_NEAR(hi, 1.0, 1e-12);
    EXPECT_LT(policy.frequencyScale(2.0_mW), 1.0);
}

TEST(Spendthrift, EffectiveComputeEnergyScales)
{
    const Processor nvp = Processor::nosNvp();
    const Energy nominal = nvp.computeEnergy(100000);
    const Energy at_low =
        nvp.effectiveComputeEnergy(100000, Power::fromMicrowatts(100.0));
    const Energy at_high =
        nvp.effectiveComputeEnergy(100000, 50.0_mW);
    EXPECT_LT(at_low, nominal);
    EXPECT_NEAR(at_high.joules(), nominal.joules(), 1e-15);
    EXPECT_NEAR(nominal.joules() / at_low.joules(),
                nvp.spendthrift->maxBenefit, 1e-9);
    // Without Spendthrift the cost is the nominal one at any income.
    const Processor vp = Processor::volatileMcu();
    EXPECT_EQ(vp.effectiveComputeEnergy(100000, Power::fromMicrowatts(100.0)),
              vp.computeEnergy(100000));
}

TEST(Spendthrift, RejectsBadConfig)
{
    EXPECT_NO_THROW(SpendthriftPolicy{}.validate());

    SpendthriftPolicy reversed;
    reversed.lowIncome = 10.0_mW;
    reversed.highIncome = 1.0_mW;
    EXPECT_THROW(reversed.validate(), FatalError);

    SpendthriftPolicy below_one;
    below_one.minBenefit = 0.5;
    EXPECT_THROW(below_one.validate(), FatalError);
}

} // namespace
} // namespace neofog
