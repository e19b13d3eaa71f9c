/**
 * @file
 * Property-style integration sweeps over the full system: invariants
 * that must hold for every combination of mode, trace, balancer, and
 * multiplexing, plus a long-horizon endurance run.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "fog/fog_system.hh"
#include "fog/presets.hh"

namespace neofog {
namespace {

using SweepParam =
    std::tuple<OperatingMode, TraceKind, const char *, int>;

class SystemSweep : public ::testing::TestWithParam<SweepParam>
{
  protected:
    ScenarioConfig
    makeConfig() const
    {
        const auto [mode, trace, policy, mux] = GetParam();
        ScenarioConfig cfg;
        cfg.nodesPerChain = 6;
        cfg.chains = 1;
        cfg.horizon = 40 * kMin;
        cfg.slotInterval = 12 * kSec;
        cfg.traceKind = trace;
        cfg.meanIncome = Power::fromMilliwatts(
            trace == TraceKind::RainLow ? 0.75 : 2.6);
        cfg.mode = mode;
        cfg.balancerPolicy = policy;
        cfg.multiplexing = mux;
        cfg.nodeTemplate = presets::systemNodeTemplate();
        cfg.seed = 31;
        return cfg;
    }
};

TEST_P(SystemSweep, ReportInvariantsHold)
{
    const ScenarioConfig cfg = makeConfig();
    FogSystem sys(cfg);
    const SystemReport r = sys.run();

    // Slot conservation: every logical slot wakes a clone or fails.
    EXPECT_EQ(r.wakeups + r.depletionFailures, cfg.idealPackages());
    // Data conservation: output bounded by captures.
    EXPECT_LE(r.totalProcessed() + r.packagesIncidental,
              r.packagesSampled);
    EXPECT_LE(r.packagesSampled, cfg.idealPackages());
    // VP never fog-processes.
    if (cfg.mode == OperatingMode::NosVp) {
        EXPECT_EQ(r.packagesInFog, 0u);
        EXPECT_EQ(r.tasksBalancedAway, 0u);
    }
    // The no-op balancer neither moves nor messages.
    if (std::string(std::get<2>(GetParam())) == "none") {
        EXPECT_EQ(r.tasksBalancedAway, 0u);
        EXPECT_EQ(r.lbMessages, 0u);
    }
}

TEST_P(SystemSweep, PerNodeEnergyConservation)
{
    const ScenarioConfig cfg = makeConfig();
    FogSystem sys(cfg);
    sys.run();
    const double initial_mj =
        cfg.nodeTemplate.cap.initial.millijoules();
    for (std::size_t i = 0; i < sys.physicalPerChain(); ++i) {
        const NodeStats &st = sys.node(0, i).stats();
        const double spent = st.spentCompute.millijoules() +
                             st.spentTx.millijoules() +
                             st.spentRx.millijoules() +
                             st.spentSample.millijoules() +
                             st.spentWake.millijoules();
        EXPECT_LE(spent,
                  st.harvestedTotal.millijoules() + initial_mj + 1e-6);
    }
}

TEST_P(SystemSweep, DeterministicAcrossRuns)
{
    const ScenarioConfig cfg = makeConfig();
    const SystemReport a = FogSystem(cfg).run();
    const SystemReport b = FogSystem(cfg).run();
    EXPECT_EQ(a.totalProcessed(), b.totalProcessed());
    EXPECT_EQ(a.packagesSampled, b.packagesSampled);
    EXPECT_EQ(a.tasksBalancedAway, b.tasksBalancedAway);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SystemSweep,
    ::testing::Combine(
        ::testing::Values(OperatingMode::NosVp, OperatingMode::NosNvp,
                          OperatingMode::FiosNvMote),
        ::testing::Values(TraceKind::ForestIndependent,
                          TraceKind::BridgeDependent,
                          TraceKind::RainLow),
        ::testing::Values("none", "tree", "distributed"),
        ::testing::Values(1, 3)));

TEST(SystemEndurance, ThreeDayRunStaysSane)
{
    // Multi-day horizon: the diurnal envelope includes nights, so the
    // system must survive long zero-income stretches and recover.
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.horizon = 3 * 24 * kHour;
    cfg.seed = 77;
    StoredEnergyLog logs[10];
    FogSystem sys(cfg);
    for (std::size_t i = 0; i < 10; ++i)
        sys.setObserver(0, i, &logs[i]);
    const SystemReport r = sys.run();
    EXPECT_EQ(r.wakeups + r.depletionFailures, cfg.idealPackages());
    EXPECT_GT(r.totalProcessed(), 0u);
    // Night slots produce nothing, so yield is well below daytime
    // levels but the run completes and the accounting balances.
    EXPECT_LE(r.totalProcessed(), r.packagesSampled);
    for (const StoredEnergyLog &log : logs) {
        EXPECT_EQ(log.series().points().size(),
                  static_cast<std::size_t>(cfg.slotCount()));
        for (const auto &pt : log.series().points())
            EXPECT_GE(pt.value, -1e-9);
    }
}

} // namespace
} // namespace neofog
