/**
 * @file
 * Tests for the hop-by-hop relay mode, real-time requests, and the
 * Spendthrift frequency-scaling option.
 */

#include <gtest/gtest.h>

#include <memory>

#include "energy/power_trace.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "node/node.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

ScenarioConfig
baseScenario()
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.horizon = kHour;
    cfg.seed = 23;
    return cfg;
}

TEST(Relay, OffByDefault)
{
    FogSystem sys(baseScenario());
    const SystemReport r = sys.run();
    EXPECT_EQ(r.relayHops, 0u);
    EXPECT_EQ(r.relayDrops, 0u);
}

TEST(Relay, HopByHopChargesIntermediates)
{
    ScenarioConfig cfg = baseScenario();
    cfg.hopByHopRelay = true;
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    EXPECT_GT(r.relayHops, 0u);
    // Delivered counts survive, but relaying costs throughput.
    FogSystem direct(baseScenario());
    const SystemReport rd = direct.run();
    EXPECT_LE(r.totalProcessed(), rd.totalProcessed());
}

TEST(Relay, FunnelEffectNearSink)
{
    // Intermediates closer to the sink relay more traffic and spend
    // more radio energy than the far end of the chain.
    ScenarioConfig cfg = baseScenario();
    cfg.hopByHopRelay = true;
    cfg.meanIncome = Power::fromMilliwatts(6.0); // enough traffic
    FogSystem sys(cfg);
    sys.run();
    const double near_tx =
        sys.node(0, 1).stats().spentTx.millijoules() +
        sys.node(0, 1).stats().spentRx.millijoules();
    const double far_tx =
        sys.node(0, 9).stats().spentTx.millijoules() +
        sys.node(0, 9).stats().spentRx.millijoules();
    EXPECT_GT(near_tx, 1.5 * far_tx);
}

TEST(RealTime, OffByDefault)
{
    FogSystem sys(baseScenario());
    const SystemReport r = sys.run();
    EXPECT_EQ(r.rtRequestsServed + r.rtRequestsMissed, 0u);
}

TEST(RealTime, RequestsServedAndCounted)
{
    ScenarioConfig cfg = baseScenario();
    cfg.realTimeRequestChance = 0.05;
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    const auto total = r.rtRequestsServed + r.rtRequestsMissed;
    EXPECT_GT(total, 0u);
    EXPECT_GT(r.rtRequestsServed, 0u);
    // Served requests shipped raw: the cloud share rises.
    EXPECT_GE(r.packagesToCloud, r.rtRequestsServed);
}

TEST(RealTime, StarvedNodesMissRequests)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 1);
    cfg.horizon = 2 * kHour;
    cfg.realTimeRequestChance = 0.1;
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    EXPECT_GT(r.rtRequestsMissed, 0u);
}

TEST(FrequencyScaling, SlowsTasksAtLowIncome)
{
    Node::Config cfg = presets::systemNodeTemplate();
    cfg.enableFrequencyScaling = true;
    Node scaled(cfg, std::make_unique<ConstantTrace>(
                         Power::fromMicrowatts(300.0)));
    Node::Config cfg2 = presets::systemNodeTemplate();
    Node nominal(cfg2, std::make_unique<ConstantTrace>(
                           Power::fromMicrowatts(300.0)));
    scaled.beginSlot(0, 12 * kSec);
    nominal.beginSlot(0, 12 * kSec);
    EXPECT_GT(scaled.taskComputeTime(), 2 * nominal.taskComputeTime());
}

TEST(FrequencyScaling, NoEffectAtHighIncome)
{
    Node::Config cfg = presets::systemNodeTemplate();
    cfg.enableFrequencyScaling = true;
    Node scaled(cfg, std::make_unique<ConstantTrace>(50.0_mW));
    Node::Config cfg2 = presets::systemNodeTemplate();
    Node nominal(cfg2, std::make_unique<ConstantTrace>(50.0_mW));
    scaled.beginSlot(0, 12 * kSec);
    nominal.beginSlot(0, 12 * kSec);
    EXPECT_EQ(scaled.taskComputeTime(), nominal.taskComputeTime());
}

TEST(FrequencyScaling, SystemStillRuns)
{
    ScenarioConfig cfg = baseScenario();
    cfg.nodeTemplate.enableFrequencyScaling = true;
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    EXPECT_GT(r.totalProcessed(), 0u);
    EXPECT_EQ(r.wakeups + r.depletionFailures, cfg.idealPackages());
}

} // namespace
} // namespace neofog
