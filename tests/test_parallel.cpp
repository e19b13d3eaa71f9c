/**
 * @file
 * Tests for the ThreadPool and the parallel execution model: same
 * seed must yield a byte-identical SystemReport no matter how many
 * threads run the chains, and the multi-seed experiment runner must
 * aggregate identically serial vs parallel.  Registered under the
 * "parallel" ctest label so the suite can run under TSan
 * (-DNEOFOG_SANITIZE=thread; ctest -L parallel) to prove the
 * ChainEngine boundary is race-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "fog/experiment.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/thread_pool.hh"

namespace neofog {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SizeOneRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    const auto caller = std::this_thread::get_id();
    pool.parallelFor(8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, ZeroMeansHardwareThreads)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.size(), 1u);
    EXPECT_EQ(pool.size(), ThreadPool::hardwareThreads());
}

TEST(ThreadPool, EmptyLoopIsANoOp)
{
    ThreadPool pool(3);
    bool ran = false;
    pool.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, SurvivesBackToBackLoops)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelFor(17, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ThreadPool, PropagatesBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(64,
                         [&](std::size_t i) {
                             if (i == 13)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool stays usable after a throwing loop.
    std::atomic<int> ok{0};
    pool.parallelFor(8, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, FreeHelperFallsBackToSerial)
{
    std::vector<int> order;
    parallelFor(nullptr, 5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    // Serial fallback preserves index order.
    std::vector<int> expect(5);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

ScenarioConfig
multiChainScenario(unsigned threads)
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.chains = 6;
    cfg.horizon = kHour;
    cfg.balancerPolicy = "distributed";
    cfg.realTimeRequestChance = 0.01;
    cfg.seed = 42;
    cfg.threads = threads;
    return cfg;
}

TEST(ParallelDeterminism, ReportIdenticalAcrossThreadCounts)
{
    const SystemReport serial =
        FogSystem(multiChainScenario(1)).run();
    for (unsigned threads : {2u, 4u, 0u}) {
        const SystemReport parallel =
            FogSystem(multiChainScenario(threads)).run();
        // operator== compares every field, including the
        // order-sensitive floating-point energy sums.
        EXPECT_EQ(serial, parallel)
            << "report diverged at threads=" << threads;
    }
}

TEST(ParallelDeterminism, PerNodeStateIdenticalAcrossThreadCounts)
{
    FogSystem a(multiChainScenario(1));
    FogSystem b(multiChainScenario(4));
    a.run();
    b.run();
    for (std::size_t c = 0; c < 6; ++c) {
        for (std::size_t i = 0; i < a.physicalPerChain(); ++i) {
            const NodeStats &sa = a.node(c, i).stats();
            const NodeStats &sb = b.node(c, i).stats();
            ASSERT_EQ(sa.wakeups.value(), sb.wakeups.value());
            ASSERT_EQ(sa.packagesSampled.value(),
                      sb.packagesSampled.value());
            ASSERT_EQ(sa.tasksShipped.value(),
                      sb.tasksShipped.value());
            ASSERT_DOUBLE_EQ(sa.harvestedTotal.millijoules(),
                             sb.harvestedTotal.millijoules());
        }
    }
}

TEST(ParallelDeterminism, MultiplexedRelayScenarioIdentical)
{
    // Exercise the clone-rotation + hop-by-hop relay paths too.
    auto mk = [](unsigned threads) {
        ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
        cfg.chains = 5;
        cfg.horizon = kHour;
        cfg.hopByHopRelay = true;
        cfg.membershipUpdateInterval = 10 * kMin;
        cfg.seed = 7;
        cfg.threads = threads;
        return cfg;
    };
    EXPECT_EQ(FogSystem(mk(1)).run(), FogSystem(mk(4)).run());
}

// Constant income takes the hoist's other arm (one integral of the
// shared level for every node) and keeps the FIOS direct channel busy.
TEST(ParallelDeterminism, ConstantTraceScenarioIdentical)
{
    auto mk = [](unsigned threads) {
        ScenarioConfig cfg;
        cfg.chains = 3;
        cfg.nodesPerChain = 8;
        cfg.multiplexing = 2;
        cfg.mode = OperatingMode::FiosNvMote;
        cfg.traceKind = TraceKind::Constant;
        cfg.meanIncome = Power::fromMilliwatts(2.2);
        cfg.balancerPolicy = "distributed";
        cfg.horizon = kHour;
        cfg.seed = 5;
        cfg.threads = threads;
        return cfg;
    };
    const SystemReport serial = FogSystem(mk(1)).run();
    for (const unsigned threads : {2u, 4u})
        EXPECT_EQ(FogSystem(mk(threads)).run(), serial)
            << "report diverged at threads=" << threads;
}

// Randomized scenario sweep: whatever the trace family (hoisted or
// stepped per node), mode, balancer, multiplexing, rotation, and
// relay/real-time knobs, four threads must reproduce the serial
// report bit for bit.
TEST(ParallelDeterminism, RandomScenariosIdenticalAcrossThreadCounts)
{
    std::minstd_rand pick(20260808);
    const TraceKind kinds[] = {TraceKind::ForestIndependent,
                               TraceKind::BridgeDependent,
                               TraceKind::RainLow, TraceKind::Constant};
    const OperatingMode modes[] = {OperatingMode::NosVp,
                                   OperatingMode::NosNvp,
                                   OperatingMode::FiosNvMote};
    const char *balancers[] = {"none", "tree", "distributed",
                               "cluster"};

    for (int round = 0; round < 6; ++round) {
        ScenarioConfig cfg;
        cfg.traceKind = kinds[pick() % 4];
        cfg.mode = modes[pick() % 3];
        cfg.balancerPolicy = balancers[pick() % 4];
        cfg.chains = 1 + pick() % 3;
        cfg.nodesPerChain = 4 + pick() % 7;
        cfg.multiplexing = 1 + pick() % 3;
        cfg.hopByHopRelay = pick() % 2 == 0;
        cfg.realTimeRequestChance = pick() % 2 == 0 ? 0.0 : 0.01;
        cfg.membershipUpdateInterval =
            pick() % 2 == 0 ? 0 : 10 * kMin;
        cfg.horizon = (20 + static_cast<Tick>(pick() % 20)) * kMin;
        cfg.seed = 1 + pick() % 1000;

        cfg.threads = 1;
        const SystemReport serial = FogSystem(cfg).run();
        cfg.threads = 4;
        EXPECT_EQ(FogSystem(cfg).run(), serial)
            << "round " << round << ", trace "
            << traceKindName(cfg.traceKind) << ", mode "
            << operatingModeName(cfg.mode) << ", balancer "
            << cfg.balancerPolicy;
    }
}

TEST(ParallelDeterminism, RunSeedsSerialVsParallelIdentical)
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.chains = 2;
    cfg.horizon = 30 * kMin;
    const AggregateReport serial = ExperimentRunner::runSeeds(
        cfg, {.runs = 6, .baseSeed = 100, .seedThreads = 1});
    const AggregateReport parallel = ExperimentRunner::runSeeds(
        cfg, {.runs = 6, .baseSeed = 100, .seedThreads = 4});
    ASSERT_EQ(serial.reports.size(), parallel.reports.size());
    for (std::size_t i = 0; i < serial.reports.size(); ++i)
        EXPECT_EQ(serial.reports[i], parallel.reports[i])
            << "seed slot " << i;
    EXPECT_DOUBLE_EQ(serial.stat("total_processed").mean(),
                     parallel.stat("total_processed").mean());
    EXPECT_DOUBLE_EQ(serial.stat("total_processed").stddev(),
                     parallel.stat("total_processed").stddev());
    EXPECT_DOUBLE_EQ(serial.stat("yield").mean(),
                     parallel.stat("yield").mean());
}

TEST(ParallelDeterminism, ThreadsKnobDoesNotChangeSeedSemantics)
{
    // threads is a pure execution knob: two configs differing only in
    // threads are the *same* experiment.
    ScenarioConfig one = multiChainScenario(1);
    ScenarioConfig other = multiChainScenario(3);
    other.seed = one.seed;
    EXPECT_EQ(FogSystem(one).run(), FogSystem(other).run());

    // ...while a different seed is a different experiment.
    other.seed = 4242;
    EXPECT_NE(FogSystem(one).run().totalProcessed(),
              FogSystem(other).run().totalProcessed());
}

} // namespace
} // namespace neofog
