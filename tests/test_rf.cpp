/**
 * @file
 * Tests for the RF transceiver models: software RF vs NVRF, with the
 * paper's measured timing equations.
 */

#include <gtest/gtest.h>

#include "hw/rf.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

TEST(SoftwareRf, VpInitIs531Ms)
{
    SoftwareRf rf;
    // Init (531 ms at init power) + network rejoin (RX).
    const RfPhase init = rf.initCost();
    EXPECT_GE(init.duration, ticksFromMs(531.0));
    EXPECT_GT(init.energy.millijoules(), 10.0);
}

TEST(SoftwareRf, NvmDirectInitIs33Ms)
{
    SoftwareRf rf{SoftwareRf::nvmDirectConfig()};
    EXPECT_EQ(rf.swConfig().initLatency, ticksFromMs(33.0));
    EXPECT_LT(rf.initCost().duration, ticksFromMs(100.0));
}

TEST(SoftwareRf, TxTimeMatchesPaperEquation)
{
    // Paper: data transmission of N bytes costs (255 + 1.44N + 0.032N) ms.
    SoftwareRf rf;
    const std::size_t n = 100;
    const Tick expect = ticksFromMs(255.0 + 1.472 * 100.0);
    EXPECT_EQ(rf.txCost(n).duration, expect);
}

TEST(SoftwareRf, TxEnergyUsesTxPower)
{
    SoftwareRf rf;
    const RfPhase tx = rf.txCost(0);
    // 255 ms at 89.1 mW = 22.72 mJ.
    EXPECT_NEAR(tx.energy.millijoules(), 255.0 * 0.0891, 0.05);
}

TEST(NvRf, SelfInitAfterConfigure)
{
    NvRfController rf;
    EXPECT_FALSE(rf.configured());
    // Before configuration, init is the one-time 28 ms host setup.
    EXPECT_EQ(rf.initCost().duration, ticksFromMs(28.0));
    rf.configure();
    EXPECT_TRUE(rf.configured());
    // After, self-reinit in 1.2 ms.
    EXPECT_EQ(rf.initCost().duration, ticksFromMs(1.2));
}

TEST(NvRf, TxTimeMatchesPaperEquation)
{
    // Paper: (1.74 (start) + 0.156 + 0.216N + 0.032N) ms for N bytes.
    NvRfController rf;
    const std::size_t n = 50;
    const Tick expect = ticksFromMs(1.74 + 0.156 + 0.248 * 50.0);
    EXPECT_EQ(rf.txCost(n).duration, expect);
}

TEST(NvRf, InitSpeedupIs27x)
{
    SoftwareRf nvm{SoftwareRf::nvmDirectConfig()};
    NvRfController nvrf;
    nvrf.configure();
    const double speedup =
        static_cast<double>(nvm.swConfig().initLatency) /
        static_cast<double>(nvrf.nvConfig().selfInitLatency);
    EXPECT_NEAR(speedup, 27.5, 1.0); // paper: 27x
}

TEST(NvRf, ThroughputAdvantageAtLargePayloads)
{
    // The paper's 6.2x throughput advantage holds for multi-kB
    // transfers where per-byte costs dominate the crossover.
    SoftwareRf sw;
    NvRfController nv;
    nv.configure();
    const std::size_t n = 3700;
    const double ratio =
        static_cast<double>(sw.txCost(n).duration) /
        static_cast<double>(nv.txCost(n).duration);
    EXPECT_NEAR(ratio, 6.2, 0.6);
}

TEST(NvRf, CloneCopiesState)
{
    NvRfController source;
    source.configure();
    source.state().channel = 19;
    source.state().routeVersion = 42;
    source.state().associatedDevList = {3, 4, 5};

    NvRfController joiner;
    const RfPhase cost = joiner.cloneFrom(source);
    EXPECT_TRUE(joiner.configured());
    EXPECT_EQ(joiner.state(), source.state());
    EXPECT_GT(cost.duration, 0);
    EXPECT_GT(cost.energy.joules(), 0.0);
}

TEST(NvRf, CloneFromUnconfiguredFails)
{
    NvRfController source, joiner;
    EXPECT_THROW(joiner.cloneFrom(source), FatalError);
}

TEST(RfModule, AirtimeMatchesDataRate)
{
    SoftwareRf rf;
    // 250 kbps: one byte = 32 us.
    EXPECT_EQ(rf.airtime(1), 32);
    EXPECT_EQ(rf.airtime(1000), 32000);
}

TEST(RfModule, RxAndIdleCosts)
{
    SoftwareRf rf;
    const RfPhase rx = rf.rxCost(kSec);
    EXPECT_NEAR(rx.energy.millijoules(), 72.0, 1e-9);
    const RfPhase idle = rf.idleCost(kSec);
    EXPECT_NEAR(idle.energy.millijoules(), 14.93, 1e-9);
}

TEST(RfModule, TxEnergyPerByteMatchesTable2)
{
    // Raw airtime energy per byte: 32 us x 89.1 mW = 2851.2 nJ, the
    // per-byte constant behind Table 2's TX column.
    SoftwareRf rf;
    const Energy per_byte =
        rf.config().txPower * rf.airtime(1);
    EXPECT_NEAR(per_byte.nanojoules(), 2851.2, 1e-6);
}

} // namespace
} // namespace neofog
