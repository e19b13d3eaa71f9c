/**
 * @file
 * Tests for the chain load balancers.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "balance/balancer.hh"
#include "balance/policy_registry.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

std::vector<LbNodeState>
uniformChain(std::size_t n, int pending, double capacity)
{
    std::vector<LbNodeState> states(n);
    for (auto &s : states) {
        s.alive = true;
        s.pendingTasks = pending;
        s.capacityTasks = capacity;
        s.taskCost = 1.0;
    }
    return states;
}

int
totalPending(const std::vector<int> &p)
{
    return std::accumulate(p.begin(), p.end(), 0);
}

TEST(LbOutcome, ApplyMovesTasks)
{
    LbOutcome out;
    out.moves = {{0, 2, 3}, {1, 2, 1}};
    const auto result = out.apply({5, 5, 0});
    EXPECT_EQ(result, (std::vector<int>{2, 4, 4}));
}

TEST(NoBalancer, DoesNothing)
{
    NoBalancer bal;
    Rng rng(1);
    auto states = uniformChain(10, 3, 0.0);
    const LbOutcome out = bal.balance(states, rng);
    EXPECT_TRUE(out.moves.empty());
    EXPECT_EQ(out.messagesExchanged, 0);
}

TEST(TreeBalancer, MovesFromOverloadedToSpare)
{
    TreeBalancer bal;
    Rng rng(2);
    auto states = uniformChain(8, 2, 0.4);
    states[1].capacityTasks = 4.5; // spare receiver in the left half
    states[6].capacityTasks = 4.5; // and in the right half
    const LbOutcome out = bal.balance(states, rng);
    EXPECT_FALSE(out.moves.empty());
    // Conservation: moves only redistribute.
    std::vector<int> pending(8, 2);
    const auto after = out.apply(pending);
    EXPECT_EQ(totalPending(after), 16);
}

TEST(TreeBalancer, DeadCoordinatorFailsRegion)
{
    TreeBalancer bal;
    Rng rng(3);
    auto states = uniformChain(8, 3, 0.2);
    states[2].capacityTasks = 9.0; // would-be receiver
    // Root coordinator (index 4) is dead: the whole chain region
    // cannot balance (Fig 6(c) failure).
    states[4].alive = false;
    const LbOutcome out = bal.balance(states, rng);
    EXPECT_TRUE(out.moves.empty());
    EXPECT_GE(out.failedRegions, 1);
}

TEST(TreeBalancer, LowEnergyCoordinatorAlsoFails)
{
    TreeBalancer::Config cfg;
    cfg.coordinatorMinCapacity = 1.0;
    TreeBalancer bal(cfg);
    Rng rng(4);
    auto states = uniformChain(8, 3, 0.2);
    states[4].capacityTasks = 0.5; // alive but too weak to coordinate
    const LbOutcome out = bal.balance(states, rng);
    EXPECT_TRUE(out.moves.empty());
    EXPECT_GE(out.failedRegions, 1);
}

TEST(DistributedBalancer, MovesToNeighborsWithSpare)
{
    DistributedBalancer::Config cfg;
    cfg.interruptChance = 0.0;
    DistributedBalancer bal(cfg);
    Rng rng(5);
    auto states = uniformChain(10, 2, 0.5); // everyone overloaded by ~1
    states[4].pendingTasks = 0;
    states[4].capacityTasks = 6.0; // rich node with spare
    const LbOutcome out = bal.balance(states, rng);
    ASSERT_FALSE(out.moves.empty());
    int into4 = 0;
    for (const TaskMove &m : out.moves) {
        EXPECT_NE(m.from, 4u);
        if (m.to == 4)
            into4 += m.tasks;
    }
    EXPECT_GT(into4, 0);
    EXPECT_LE(into4, 6);
}

TEST(DistributedBalancer, RespectsNeighborWindow)
{
    DistributedBalancer::Config cfg;
    cfg.interruptChance = 0.0;
    cfg.neighborWindow = 1;
    DistributedBalancer bal(cfg);
    Rng rng(6);
    auto states = uniformChain(10, 3, 0.0);
    states[9].capacityTasks = 10.0; // spare far from node 0
    const LbOutcome out = bal.balance(states, rng);
    for (const TaskMove &m : out.moves) {
        const auto dist = m.from > m.to ? m.from - m.to : m.to - m.from;
        EXPECT_LE(dist, 1u);
    }
}

TEST(DistributedBalancer, ToleratesDeadNeighbors)
{
    DistributedBalancer::Config cfg;
    cfg.interruptChance = 0.0;
    DistributedBalancer bal(cfg);
    Rng rng(7);
    auto states = uniformChain(5, 2, 0.5);
    states[1].alive = false;
    states[3].alive = false;
    states[2].pendingTasks = 4;
    // Node 2's direct neighbours are dead; window 2 reaches 0 and 4.
    states[0].capacityTasks = 5.0;
    states[0].pendingTasks = 0;
    const LbOutcome out = bal.balance(states, rng);
    bool moved_to_0 = false;
    for (const TaskMove &m : out.moves)
        moved_to_0 |= (m.from == 2 && m.to == 0);
    EXPECT_TRUE(moved_to_0);
}

TEST(DistributedBalancer, InterruptSkipsRegion)
{
    DistributedBalancer::Config cfg;
    cfg.interruptChance = 1.0; // every region interrupts
    DistributedBalancer bal(cfg);
    Rng rng(8);
    auto states = uniformChain(6, 3, 0.0);
    states[3].capacityTasks = 9.0;
    const LbOutcome out = bal.balance(states, rng);
    EXPECT_TRUE(out.moves.empty());
    EXPECT_GT(out.failedRegions, 0);
}

TEST(DistributedBalancer, ConservationUnderRandomStates)
{
    DistributedBalancer bal;
    Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 4 + static_cast<std::size_t>(
            rng.uniformInt(0, 12));
        std::vector<LbNodeState> states(n);
        std::vector<int> pending(n);
        for (std::size_t i = 0; i < n; ++i) {
            states[i].alive = rng.chance(0.8);
            states[i].pendingTasks =
                static_cast<int>(rng.uniformInt(0, 6));
            states[i].capacityTasks = rng.uniform(0.0, 5.0);
            states[i].taskCost = rng.uniform(0.5, 1.5);
            pending[i] = states[i].pendingTasks;
        }
        const LbOutcome out = bal.balance(states, rng);
        const auto after = out.apply(pending);
        EXPECT_EQ(totalPending(after), totalPending(pending));
        for (int p : after)
            EXPECT_GE(p, 0);
    }
}

TEST(ClusterBalancer, BalancesWithinClusters)
{
    ClusterBalancer bal;
    Rng rng(10);
    auto states = uniformChain(8, 2, 0.4);
    states[1].capacityTasks = 5.0; // receiver in cluster 0
    states[6].capacityTasks = 5.0; // receiver in cluster 1
    const LbOutcome out = bal.balance(states, rng);
    ASSERT_FALSE(out.moves.empty());
    // All moves stay inside their 4-node cluster.
    for (const TaskMove &m : out.moves) {
        EXPECT_EQ(m.from / 4, m.to / 4);
    }
    const auto after = out.apply({2, 2, 2, 2, 2, 2, 2, 2});
    EXPECT_EQ(totalPending(after), 16);
}

TEST(ClusterBalancer, NoViableHeadFailsCluster)
{
    ClusterBalancer bal;
    Rng rng(11);
    auto states = uniformChain(8, 3, 0.1); // nobody can head
    const LbOutcome out = bal.balance(states, rng);
    EXPECT_TRUE(out.moves.empty());
    EXPECT_EQ(out.failedRegions, 2);
}

TEST(ClusterBalancer, InterClusterImbalanceUnaddressed)
{
    // The whole surplus lives in cluster 1; cluster 0's overload
    // cannot reach it — the weakness the distributed scheme avoids.
    ClusterBalancer bal;
    Rng rng(12);
    auto states = uniformChain(8, 0, 0.2);
    for (std::size_t i = 0; i < 4; ++i)
        states[i].pendingTasks = 4;
    for (std::size_t i = 4; i < 8; ++i)
        states[i].capacityTasks = 6.0;
    const LbOutcome out = bal.balance(states, rng);
    for (const TaskMove &m : out.moves)
        EXPECT_LT(m.to, 4u);
}

TEST(ClusterBalancer, RejectsBadConfig)
{
    ClusterBalancer::Config cfg;
    cfg.clusterSize = 1;
    EXPECT_THROW(ClusterBalancer{cfg}, FatalError);
}

TEST(MakeBalancer, FactoryNames)
{
    const PolicyRegistry &reg = PolicyRegistry::instance();
    EXPECT_EQ(reg.make("none")->name(), "none");
    EXPECT_EQ(reg.make("tree")->name(), "baseline-tree");
    EXPECT_EQ(reg.make("cluster")->name(), "cluster-head");
    EXPECT_EQ(reg.make("distributed")->name(), "neofog-distributed");
    EXPECT_THROW(reg.make("bogus"), FatalError);
}

} // namespace
} // namespace neofog
