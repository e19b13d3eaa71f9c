/**
 * @file
 * Tests for NVD4Q node virtualization (Algorithm 2).
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/logging.hh"
#include "virt/nvd4q.hh"

namespace neofog {
namespace {

TEST(CloneGroup, RotationCoversAllMembers)
{
    CloneGroup group(0, {10, 11, 12});
    std::set<std::size_t> seen;
    for (std::int64_t s = 0; s < 3; ++s)
        seen.insert(group.memberForSlot(s));
    EXPECT_EQ(seen.size(), 3u);
    // Period 3.
    EXPECT_EQ(group.memberForSlot(0), group.memberForSlot(3));
}

TEST(CloneGroup, ExactlyOneMemberPerSlot)
{
    CloneGroup group(1, {0, 1, 2, 3});
    for (std::int64_t s = 0; s < 20; ++s) {
        int active = 0;
        for (std::size_t m : group.members()) {
            if (group.memberForSlot(s) == m)
                ++active;
        }
        EXPECT_EQ(active, 1);
    }
}

TEST(CloneGroup, PhasesUniqueWithinGroup)
{
    CloneGroup group(0, {5, 6, 7, 8});
    std::set<int> phases;
    for (std::size_t m : group.members())
        phases.insert(group.phaseOf(m));
    EXPECT_EQ(phases.size(), 4u);
}

TEST(CloneGroup, SingleMemberAlwaysActive)
{
    CloneGroup group(0, {42});
    EXPECT_EQ(group.multiplier(), 1);
    for (std::int64_t s = 0; s < 5; ++s)
        EXPECT_EQ(group.memberForSlot(s), 42u);
}

TEST(CloneGroup, MembershipRotationShiftsSchedule)
{
    CloneGroup group(0, {1, 2, 3});
    const std::size_t before = group.memberForSlot(0);
    group.rotateMembership();
    const std::size_t after = group.memberForSlot(0);
    EXPECT_NE(before, after);
    EXPECT_TRUE(group.contains(before));
    EXPECT_TRUE(group.contains(after));
}

TEST(CloneGroup, ContainsAndErrors)
{
    CloneGroup group(3, {9, 10});
    EXPECT_TRUE(group.contains(9));
    EXPECT_FALSE(group.contains(11));
    EXPECT_THROW(group.phaseOf(11), FatalError);
    EXPECT_THROW(CloneGroup(0, {}), FatalError);
}

TEST(Nvd4q, FormGroupsAttachesToNearestAnchor)
{
    Rng rng(5);
    const int density = 3;
    const std::size_t n_logical = 6;
    const ChainMesh mesh = ChainMesh::makeDenseChain(
        n_logical, density, 20.0, 4.0, rng);
    const auto groups =
        Nvd4qManager::formGroups(mesh, n_logical, density);
    ASSERT_EQ(groups.size(), n_logical);

    // Every physical node belongs to exactly one group.
    std::set<std::size_t> assigned;
    for (const auto &g : groups) {
        for (std::size_t m : g.members()) {
            EXPECT_TRUE(assigned.insert(m).second);
        }
    }
    EXPECT_EQ(assigned.size(), mesh.size());

    // Scatter (4 m) is far smaller than spacing (20 m), so each clone
    // lands at its own anchor's group.
    for (std::size_t i = 0; i < groups.size(); ++i) {
        EXPECT_EQ(groups[i].members().size(),
                  static_cast<std::size_t>(density));
        EXPECT_EQ(groups[i].members().front(),
                  i * static_cast<std::size_t>(density));
    }
}

TEST(Nvd4q, FormGroupsRejectsMismatch)
{
    Rng rng(6);
    const ChainMesh mesh = ChainMesh::makeLinear(10, 10.0);
    EXPECT_THROW(Nvd4qManager::formGroups(mesh, 4, 3), FatalError);
}

TEST(Nvd4q, JoinCostClonesState)
{
    RfState source;
    source.channel = 21;
    source.panId = 0x3001;
    source.routeVersion = 42;
    source.associatedDevList = {1, 2, 5};
    source.slotPhase = 2;
    source.wakeIntervalMultiplier = 3;

    RfState joiner;
    const Radio nvrf = Radio::nvrf();
    const JoinCost cost = Nvd4qManager::joinCost(nvrf, joiner, source);
    EXPECT_EQ(joiner, source);
    // The 25 ms listen, the clone frame's RX window (64 B plus 4 B per
    // neighbour, and a 2 ms guard) and the self-init that latches it,
    // then the 3 ms sync.
    const Tick window = nvrf.airtime(64 + 4 * 3) + ticksFromMs(2.0);
    EXPECT_EQ(cost.duration, ticksFromMs(25.0) + window +
                                 ticksFromMs(1.2) + ticksFromMs(3.0));
    EXPECT_GT(cost.energy.millijoules(), 0.0);
}

TEST(Nvd4q, JoinCostNeedsAnNvrf)
{
    RfState joiner;
    EXPECT_THROW(
        Nvd4qManager::joinCost(Radio::nvmDirect(), joiner, RfState{}),
        FatalError);
}

TEST(Nvd4q, JoinCostIsMillisecondScale)
{
    // The whole Algorithm 2 join is tens of milliseconds — far cheaper
    // than a software network (re)construction (hundreds of ms).
    RfState joiner;
    const JoinCost cost =
        Nvd4qManager::joinCost(Radio::nvrf(), joiner, RfState{});
    EXPECT_LT(cost.duration, ticksFromMs(100.0));
}

TEST(Nvd4q, GroupQosCountsServedSlots)
{
    CloneGroup group(0, {0, 1});
    // Member 0 always serves; member 1 never does.
    std::vector<std::vector<bool>> served = {
        std::vector<bool>(10, true),
        std::vector<bool>(10, false),
    };
    EXPECT_NEAR(Nvd4qManager::groupQos(group, 10, served), 0.5, 1e-12);
}

TEST(Nvd4q, GroupQosPerfectAndZero)
{
    CloneGroup group(0, {0, 1, 2});
    std::vector<std::vector<bool>> all(3, std::vector<bool>(9, true));
    EXPECT_DOUBLE_EQ(Nvd4qManager::groupQos(group, 9, all), 1.0);
    std::vector<std::vector<bool>> none(3, std::vector<bool>(9, false));
    EXPECT_DOUBLE_EQ(Nvd4qManager::groupQos(group, 9, none), 0.0);
}

} // namespace
} // namespace neofog
