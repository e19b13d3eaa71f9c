/**
 * @file
 * Tests for chain self-healing (orphan scan / rejoin), NVD4Q
 * membership updates at the system level, and the chain's clone
 * schedule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fog/chain_engine.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "virt/nvd4q.hh"

namespace neofog {
namespace {

ScenarioConfig
rainScenario()
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 1);
    cfg.horizon = 2 * kHour;
    cfg.seed = 13;
    return cfg;
}

TEST(Healing, OrphanScansOccurWhenNodesDie)
{
    // Rain starves nodes, so liveness flaps: the chain must heal.
    FogSystem sys(rainScenario());
    const SystemReport r = sys.run();
    EXPECT_GT(r.depletionFailures, 0u);
    EXPECT_GT(r.orphanScans, 0u);
    EXPECT_GT(r.rejoins, 0u);
    // Every scan implies a death transition, every rejoin a recovery;
    // transitions alternate per node, so the counts are within each
    // other's ballpark.
    EXPECT_LT(r.orphanScans, r.rejoins + 20u);
}

TEST(Healing, StablePowerNeedsNoHealing)
{
    ScenarioConfig cfg = rainScenario();
    cfg.traceKind = TraceKind::Constant;
    cfg.meanIncome = Power::fromMilliwatts(8.0);
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    EXPECT_EQ(r.orphanScans, 0u);
    EXPECT_EQ(r.rejoins, 0u);
}

TEST(Membership, NoUpdatesByDefault)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.horizon = kHour;
    FogSystem sys(cfg);
    EXPECT_EQ(sys.run().membershipUpdates, 0u);
}

TEST(Membership, RotatesAtConfiguredInterval)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.horizon = kHour;                        // 300 slots
    cfg.membershipUpdateInterval = 10 * kMin;   // every 50 slots
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    // floor(299/50) = 5 rotation points x 10 groups.
    EXPECT_EQ(r.membershipUpdates, 5u * 10u);
}

TEST(Membership, UnmultiplexedGroupsNeverRotate)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 1);
    cfg.horizon = kHour;
    cfg.membershipUpdateInterval = 10 * kMin;
    FogSystem sys(cfg);
    EXPECT_EQ(sys.run().membershipUpdates, 0u);
}

TEST(Membership, RotationPreservesThroughputRoughly)
{
    // Rotations redistribute wear but should not collapse yield.
    auto mk = [](Tick interval) {
        ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
        cfg.horizon = 2 * kHour;
        cfg.membershipUpdateInterval = interval;
        return cfg;
    };
    const auto without = FogSystem(mk(0)).run();
    const auto with = FogSystem(mk(20 * kMin)).run();
    EXPECT_GT(static_cast<double>(with.totalProcessed()),
              0.7 * static_cast<double>(without.totalProcessed()));
}

// ---------------------------------------------------------------------
// Clone schedule: a chain keeps one rotation counter, and serves the
// clone CloneGroup::memberForSlot picks over contiguous groups.
// ---------------------------------------------------------------------

struct ScheduleCase
{
    int mux;
    bool rotating;
};

class ChainSchedule : public ::testing::TestWithParam<ScheduleCase>
{
};

// The serving clone of a slot is the one node whose wake + depletion
// counters moved: every scheduled node tries to wake exactly once.
TEST_P(ChainSchedule, ServesTheMemberCloneGroupPicks)
{
    const auto [mux, rotating] = GetParam();
    constexpr std::int64_t kEvery = 3;
    ScenarioConfig cfg;
    cfg.nodesPerChain = 4;
    cfg.multiplexing = mux;
    cfg.traceKind = TraceKind::Constant;
    cfg.meanIncome = Power::fromMilliwatts(1.0);
    cfg.nodeTemplate = presets::systemNodeTemplate();
    cfg.horizon = 40 * cfg.slotInterval;
    if (rotating)
        cfg.membershipUpdateInterval = kEvery * cfg.slotInterval;
    const Node::Spec spec(cfg.nodeConfig());
    ChainEngine engine(cfg, spec, Node::freshState(spec), 0, 0,
                       Rng(cfg.seed), nullptr);

    // Logical node l's clones are physical nodes [l*mux, (l+1)*mux).
    std::vector<CloneGroup> groups;
    for (std::size_t l = 0; l < cfg.nodesPerChain; ++l) {
        std::vector<std::size_t> members;
        for (int m = 0; m < mux; ++m)
            members.push_back(l * static_cast<std::size_t>(mux) +
                              static_cast<std::size_t>(m));
        groups.emplace_back(l, std::move(members));
    }
    const auto attempts = [&engine] {
        std::vector<std::uint64_t> out;
        for (const auto &node : engine.nodes())
            out.push_back(node->stats().wakeups.value() +
                          node->stats().depletionFailures.value());
        return out;
    };

    std::uint64_t rotations = 0;
    std::vector<std::uint64_t> before = attempts();
    for (std::int64_t slot = 0; slot < cfg.slotCount(); ++slot) {
        // Algorithm 2 rotates a multiplexed group every interval.
        if (rotating && mux > 1 && slot > 0 && slot % kEvery == 0) {
            for (CloneGroup &g : groups)
                g.rotateMembership();
            ++rotations;
        }
        engine.runSlot(slot);
        const std::vector<std::uint64_t> after = attempts();
        for (const CloneGroup &g : groups) {
            const std::size_t serving = g.memberForSlot(slot);
            for (const std::size_t p : g.members())
                EXPECT_EQ(after[p] - before[p], p == serving ? 1u : 0u)
                    << "slot " << slot << ", logical " << g.logicalId()
                    << ", clone " << p;
        }
        before = after;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(engine.state().rotation),
              rotations);
    EXPECT_EQ(rotations > 0, rotating && mux > 1);
    engine.finalizeShard();
    EXPECT_EQ(engine.shard().membershipUpdates,
              rotations * cfg.nodesPerChain);
}

INSTANTIATE_TEST_SUITE_P(
    MuxAndRotation, ChainSchedule,
    ::testing::Values(ScheduleCase{1, false}, ScheduleCase{1, true},
                      ScheduleCase{2, false}, ScheduleCase{2, true},
                      ScheduleCase{3, false}, ScheduleCase{3, true}),
    [](const ::testing::TestParamInfo<ScheduleCase> &param_info) {
        const ScheduleCase &c = param_info.param;
        return "mux" + std::to_string(c.mux) +
               (c.rotating ? "_rotating" : "_fixed");
    });

} // namespace
} // namespace neofog
