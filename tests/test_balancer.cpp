/**
 * @file
 * Tests for the chain load balancers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

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

LbNodeState
live(int pending, double capacity, double cost = 1.0)
{
    return {true, pending, capacity, cost};
}

LbNodeState
dead(int pending = 2, double capacity = 9.0)
{
    return {false, pending, capacity, 1.0};
}

/** One crafted chain and what one distributed round made of it. */
struct PinnedRound
{
    const char *name;
    int window;
    double interruptChance;
    std::uint64_t seed;
    std::vector<LbNodeState> chain;
    std::vector<TaskMove> moves;
    int messages;
    int failedRegions;
    /** The caller's stream after the round: pins its draws. */
    std::uint64_t rngNext;
};

// Every literal below was computed by the balancer as it stood before
// the no-receiver exit and the member scratch; they pin what a round
// moves, counts and draws.  Seed 1's untouched stream reads
// 0xb3f2af6d0fc710c5: interrupt chances 0 and 1 draw nothing.
std::vector<PinnedRound>
pinnedRounds()
{
    return {
        {"len1_alone", 1, 0.0, 1,
         {live(3, 0.5)},
         {}, 0, 0, 0xb3f2af6d0fc710c5ULL},
        {"len2_right_receiver", 1, 0.0, 1,
         {live(3, 0.5), live(0, 4.0)},
         {{0, 1, 3}}, 2, 0, 0xb3f2af6d0fc710c5ULL},
        {"len2_left_receiver_w2", 2, 0.0, 1,
         {live(0, 4.0), live(3, 0.5)},
         {{1, 0, 3}}, 2, 0, 0xb3f2af6d0fc710c5ULL},
        {"len2_dead_receiver", 1, 0.0, 1,
         {live(3, 0.5), dead(0)},
         {}, 1, 0, 0xb3f2af6d0fc710c5ULL},
        {"len3_split_w1", 1, 0.0, 1,
         {live(0, 3.0, 0.8), live(4, 0.0), live(0, 3.0, 1.2)},
         {{1, 0, 3}, {1, 2, 1}}, 6, 0, 0xb3f2af6d0fc710c5ULL},
        {"len3_split_w3", 3, 0.0, 1,
         {live(0, 2.0, 1.0), live(5, 0.5), live(0, 2.5, 1.0)},
         {{1, 0, 2}, {1, 2, 2}}, 8, 0, 0xb3f2af6d0fc710c5ULL},
        {"len3_interrupted", 2, 1.0, 1,
         {live(0, 3.0, 0.8), live(4, 0.0), live(0, 3.0, 1.2)},
         {}, 0, 1, 0xb3f2af6d0fc710c5ULL},
        {"len5_dead_w1", 1, 0.0, 1,
         {dead(), live(4, 0.5), dead(), live(0, 5.0), dead()},
         {}, 2, 0, 0xb3f2af6d0fc710c5ULL},
        {"len5_dead_w2", 2, 0.0, 1,
         {dead(), live(4, 0.5), dead(), live(0, 5.0), dead()},
         {{1, 3, 4}}, 4, 0, 0xb3f2af6d0fc710c5ULL},
        {"len5_dead_w3", 3, 0.0, 1,
         {dead(), live(4, 0.5), dead(), live(3, 0.5), dead()},
         {}, 8, 0, 0xb3f2af6d0fc710c5ULL},
        {"len5_two_donors_share", 1, 0.0, 1,
         {dead(), live(3, 0.5), live(0, 2.0), live(3, 0.5), dead()},
         {{1, 2, 2}}, 9, 0, 0xb3f2af6d0fc710c5ULL},
        {"len10_receiver_end_w1", 1, 0.0, 1,
         {live(2, 0.5), live(2, 0.5), live(2, 0.5), live(2, 0.5),
          live(2, 0.5), live(2, 0.5), live(2, 0.5), live(2, 0.5),
          live(2, 0.5), live(0, 6.0)},
         {{8, 9, 2}}, 33, 0, 0xb3f2af6d0fc710c5ULL},
        {"len10_receiver_end_w2", 2, 0.0, 1,
         {live(2, 0.5), live(2, 0.5), live(2, 0.5), live(2, 0.5),
          live(2, 0.5), live(2, 0.5), live(2, 0.5), live(2, 0.5),
          live(2, 0.5), live(0, 6.0)},
         {{7, 9, 2}, {8, 9, 2}}, 59, 0, 0xb3f2af6d0fc710c5ULL},
        {"len10_receiver_end_w3", 3, 0.0, 1,
         {live(2, 0.5), live(2, 0.5), live(2, 0.5), live(2, 0.5),
          live(2, 0.5), live(2, 0.5), live(2, 0.5), live(2, 0.5),
          live(2, 0.5), live(0, 6.0)},
         {{6, 9, 2}, {7, 9, 2}, {8, 9, 2}}, 78, 0,
         0xb3f2af6d0fc710c5ULL},
        {"len10_receiver_start_w3", 3, 0.0, 1,
         {live(0, 6.0), live(2, 0.5), live(2, 0.5), dead(), live(2, 0.5),
          live(2, 0.5), live(2, 0.5), dead(), live(2, 0.5),
          live(2, 0.5)},
         {{1, 0, 2}, {2, 0, 2}}, 61, 0, 0xb3f2af6d0fc710c5ULL},
        {"len10_no_receiver_w3", 3, 0.0, 1,
         {dead(), live(2, 0.5), live(1, 1.5), live(2, 0.5), dead(0),
          live(3, 2.9), live(2, 0.5), dead(), live(0, 0.5),
          live(2, 0.5)},
         {}, 25, 0, 0xb3f2af6d0fc710c5ULL},
        {"len10_no_receiver_w2", 2, 0.0, 1,
         {live(2, 0.5), live(2, 0.5), dead(), live(2, 0.5), live(2, 0.5),
          live(2, 0.5), dead(), live(2, 0.5), live(2, 0.5),
          live(2, 0.5)},
         {}, 26, 0, 0xb3f2af6d0fc710c5ULL},
        {"len10_interrupt_all", 2, 1.0, 1,
         {live(2, 0.5), live(2, 0.5), dead(), live(2, 0.5), live(0, 6.0),
          live(2, 0.5), dead(), live(2, 0.5), live(2, 0.5),
          live(2, 0.5)},
         {}, 0, 7, 0xb3f2af6d0fc710c5ULL},
        {"len10_interrupt_half", 2, 0.5, 42,
         {live(2, 0.5), live(2, 0.5), dead(), live(2, 0.5), live(0, 6.0),
          live(2, 0.5), dead(), live(2, 0.5), live(0, 3.0),
          live(2, 0.5)},
         {{3, 4, 2}, {5, 4, 2}, {7, 8, 2}, {9, 8, 1}}, 21, 2,
         0x9556615f775fbc3dULL},
        {"len10_interrupt_half_no_receiver", 3, 0.5, 43,
         {live(2, 0.5), live(2, 0.5), dead(), live(2, 0.5), live(2, 0.5),
          live(2, 0.5), dead(), live(2, 0.5), live(2, 0.5),
          live(2, 0.5)},
         {}, 17, 4, 0x180ce3f7f297c5cdULL},
    };
}

TEST(DistributedBalancer, PinnedRoundsOnCraftedChains)
{
    for (const PinnedRound &p : pinnedRounds()) {
        SCOPED_TRACE(p.name);
        DistributedBalancer::Config cfg;
        cfg.neighborWindow = p.window;
        cfg.interruptChance = p.interruptChance;
        DistributedBalancer bal(cfg);
        Rng rng(p.seed);
        LbOutcome out;
        // Twice through one balancer: its scratch carries nothing
        // from one round into the next.
        for (int pass = 0; pass < 2; ++pass) {
            Rng pass_rng = rng;
            bal.balanceInto(p.chain, pass_rng, out);
            ASSERT_EQ(out.moves.size(), p.moves.size());
            for (std::size_t k = 0; k < p.moves.size(); ++k) {
                EXPECT_EQ(out.moves[k].from, p.moves[k].from);
                EXPECT_EQ(out.moves[k].to, p.moves[k].to);
                EXPECT_EQ(out.moves[k].tasks, p.moves[k].tasks);
            }
            EXPECT_EQ(out.messagesExchanged, p.messages);
            EXPECT_EQ(out.failedRegions, p.failedRegions);
            EXPECT_EQ(pass_rng.next(), p.rngNext);
        }
    }
}

TEST(DistributedBalancer, NoReceiverCountsEveryProbeAndMovesNothing)
{
    // Without a receiver (an alive node with at least one task of
    // spare), each uninterrupted donor probes its whole window and
    // finds nothing: min(w, i) messages to the left, min(w, n-1-i) to
    // the right.
    Rng gen(2024);
    for (int trial = 0; trial < 400; ++trial) {
        const auto n = static_cast<std::size_t>(gen.uniformInt(0, 14));
        const auto w = static_cast<std::size_t>(gen.uniformInt(1, 4));
        std::vector<LbNodeState> states(n);
        for (LbNodeState &s : states) {
            s.alive = gen.chance(0.8);
            s.pendingTasks = static_cast<int>(gen.uniformInt(0, 6));
            // Alive nodes keep their spare below one task; dead ones
            // may hold any capacity, which must not make them
            // receivers.
            s.capacityTasks = s.alive
                ? gen.uniform(0.0, s.pendingTasks + 0.99)
                : gen.uniform(0.0, 9.0);
            s.taskCost = gen.uniform(0.5, 1.5);
        }
        int expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (states[i].alive &&
                states[i].pendingTasks > states[i].capacityTasks)
                expected += static_cast<int>(std::min(w, i) +
                                             std::min(w, n - 1 - i));
        }
        DistributedBalancer::Config cfg;
        cfg.neighborWindow = static_cast<int>(w);
        cfg.interruptChance = 0.0;
        DistributedBalancer bal(cfg);
        Rng rng(static_cast<std::uint64_t>(trial));
        const LbOutcome out = bal.balance(states, rng);
        SCOPED_TRACE(trial);
        EXPECT_TRUE(out.moves.empty());
        EXPECT_EQ(out.messagesExchanged, expected);
        EXPECT_EQ(out.failedRegions, 0);
    }
}

// LbNodeState's dead-node contract: whatever a dead entry's capacity
// and task cost hold, every registered policy gives the round it gives
// with honest values, down to the caller's next draw.
TEST(LoadBalancer, DeadNodesCapacityAndCostAreNeverRead)
{
    const double junk_values[] = {
        std::numeric_limits<double>::quiet_NaN(), -5.0, 1e9};
    Rng gen(725);
    for (const std::string &name : PolicyRegistry::instance().names()) {
        SCOPED_TRACE(name);
        const auto bal = PolicyRegistry::instance().make(name);
        for (int trial = 0; trial < 300; ++trial) {
            const auto n = static_cast<std::size_t>(gen.uniformInt(0, 14));
            std::vector<LbNodeState> honest(n);
            for (LbNodeState &s : honest) {
                s.alive = !gen.chance(0.3);
                s.pendingTasks = static_cast<int>(gen.uniformInt(0, 6));
                s.capacityTasks = gen.uniform(0.0, 8.0);
                s.taskCost = gen.uniform(0.5, 1.5);
            }
            const std::uint64_t seed = gen.next();
            Rng want_rng(seed);
            const LbOutcome want = bal->balance(honest, want_rng);
            const std::uint64_t want_next = want_rng.next();
            for (const double junk : junk_values) {
                SCOPED_TRACE(testing::Message()
                             << "trial " << trial << ", dead entries "
                             << junk);
                std::vector<LbNodeState> states = honest;
                for (LbNodeState &s : states) {
                    if (!s.alive) {
                        s.capacityTasks = junk;
                        s.taskCost = junk;
                    }
                }
                Rng rng(seed);
                const LbOutcome got = bal->balance(states, rng);
                EXPECT_EQ(rng.next(), want_next);
                EXPECT_EQ(got.messagesExchanged, want.messagesExchanged);
                EXPECT_EQ(got.failedRegions, want.failedRegions);
                ASSERT_EQ(got.moves.size(), want.moves.size());
                for (std::size_t k = 0; k < got.moves.size(); ++k) {
                    EXPECT_EQ(got.moves[k].from, want.moves[k].from);
                    EXPECT_EQ(got.moves[k].to, want.moves[k].to);
                    EXPECT_EQ(got.moves[k].tasks, want.moves[k].tasks);
                }
            }
        }
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
