/**
 * @file
 * Tests for the RF transceiver parts: software RF vs NVRF, with the
 * paper's measured timing equations.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "hw/rf.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

// A part is a value: no vtable, nothing to downcast.
static_assert(!std::is_polymorphic_v<Radio>);

TEST(SoftwareRf, VpInitIs531Ms)
{
    const Radio rf = Radio::software();
    EXPECT_EQ(rf.initLatency, ticksFromMs(531.0));
    // Init (531 ms at init power) + network rejoin (RX).
    const RfPhase init = rf.initCost();
    EXPECT_GE(init.duration, ticksFromMs(531.0));
    EXPECT_GT(init.energy.millijoules(), 10.0);
}

TEST(SoftwareRf, NvmDirectInitIs33Ms)
{
    const Radio rf = Radio::nvmDirect();
    EXPECT_EQ(rf.initLatency, ticksFromMs(33.0));
    EXPECT_LT(rf.initCost().duration, ticksFromMs(100.0));
}

TEST(SoftwareRf, TxTimeMatchesPaperEquation)
{
    // Paper: data transmission of N bytes costs (255 + 1.44N + 0.032N) ms.
    const Radio rf = Radio::software();
    const std::size_t n = 100;
    const Tick expect = ticksFromMs(255.0 + 1.472 * 100.0);
    EXPECT_EQ(rf.txCost(n).duration, expect);
    EXPECT_EQ(Radio::nvmDirect().txCost(n).duration, expect);
}

TEST(SoftwareRf, TxEnergyUsesTxPower)
{
    const RfPhase tx = Radio::software().txCost(0);
    // 255 ms at 89.1 mW = 22.72 mJ.
    EXPECT_NEAR(tx.energy.millijoules(), 255.0 * 0.0891, 0.05);
}

TEST(NvRf, SelfInitAfterConfigure)
{
    const Radio rf = Radio::nvrf();
    EXPECT_TRUE(rf.nonvolatile);
    EXPECT_FALSE(Radio::software().nonvolatile);
    // The one-time host configuration takes 28 ms ...
    EXPECT_EQ(rf.configureCost().duration, ticksFromMs(28.0));
    EXPECT_GT(rf.configureCost().energy.joules(), 0.0);
    // ... after which every init is the 1.2 ms self-reinit, with no
    // network rejoin.
    EXPECT_EQ(rf.initCost().duration, ticksFromMs(1.2));
    EXPECT_EQ(rf.initCost().energy, rf.initPower * ticksFromMs(1.2));
    // A software radio has no one-time configuration.
    EXPECT_EQ(Radio::software().configureCost().duration, 0);
}

TEST(NvRf, TxTimeMatchesPaperEquation)
{
    // Paper: (1.74 (start) + 0.156 + 0.216N + 0.032N) ms for N bytes.
    const Radio rf = Radio::nvrf();
    const std::size_t n = 50;
    const Tick expect = ticksFromMs(1.74 + 0.156 + 0.248 * 50.0);
    EXPECT_EQ(rf.txCost(n).duration, expect);
}

TEST(NvRf, InitSpeedupIs27x)
{
    const double speedup =
        static_cast<double>(Radio::nvmDirect().initLatency) /
        static_cast<double>(Radio::nvrf().initLatency);
    EXPECT_NEAR(speedup, 27.5, 1.0); // paper: 27x
}

TEST(NvRf, ThroughputAdvantageAtLargePayloads)
{
    // The paper's 6.2x throughput advantage holds for multi-kB
    // transfers where per-byte costs dominate the crossover.
    const std::size_t n = 3700;
    const double ratio =
        static_cast<double>(Radio::software().txCost(n).duration) /
        static_cast<double>(Radio::nvrf().txCost(n).duration);
    EXPECT_NEAR(ratio, 6.2, 0.6);
}

TEST(Radio, AirtimeMatchesDataRate)
{
    const Radio rf = Radio::software();
    // 250 kbps: one byte = 32 us.
    EXPECT_EQ(rf.airtime(1), 32);
    EXPECT_EQ(rf.airtime(1000), 32000);
}

TEST(Radio, RxAndIdleCosts)
{
    const Radio rf = Radio::software();
    const RfPhase rx = rf.rxCost(kSec);
    EXPECT_NEAR(rx.energy.millijoules(), 72.0, 1e-9);
    const RfPhase idle = rf.idleCost(kSec);
    EXPECT_NEAR(idle.energy.millijoules(), 14.93, 1e-9);
}

TEST(Radio, TxEnergyPerByteMatchesTable2)
{
    // Raw airtime energy per byte: 32 us x 89.1 mW = 2851.2 nJ, the
    // per-byte constant behind Table 2's TX column.
    const Radio rf = Radio::software();
    const Energy per_byte = rf.txPower * rf.airtime(1);
    EXPECT_NEAR(per_byte.nanojoules(), 2851.2, 1e-6);
}

} // namespace
} // namespace neofog
