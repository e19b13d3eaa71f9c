/**
 * @file
 * Tests for the ThreadPool and the parallel execution model: same
 * seed must yield a byte-identical SystemReport no matter how many
 * threads run the chains, in one run or across the multi-seed
 * experiment runner's seeds.  Registered under the
 * "parallel" ctest label so the suite can run under TSan
 * (-DNEOFOG_SANITIZE=thread; ctest -L parallel) to prove the
 * ChainEngine boundary is race-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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
    pool.parallelForChunked(hits.size(),
                            [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

// First-touch placement rests on this: every loop of a pool runs
// index i on the same thread, in contiguous per-thread chunks.
TEST(ThreadPool, ChunkToThreadMappingIsStable)
{
    ThreadPool pool(4);
    const std::size_t count = 103;
    std::vector<std::thread::id> first(count);
    std::vector<std::thread::id> again(count);
    pool.parallelForChunked(count, [&](std::size_t i) {
        first[i] = std::this_thread::get_id();
    });
    for (int round = 0; round < 5; ++round) {
        pool.parallelForChunked(count, [&](std::size_t i) {
            again[i] = std::this_thread::get_id();
        });
        EXPECT_EQ(again, first) << "round " << round;
    }
    // Chunks are contiguous, so the owner changes at most size()-1
    // times along the index range.
    std::size_t changes = 0;
    for (std::size_t i = 1; i < count; ++i)
        changes += first[i] != first[i - 1] ? 1 : 0;
    EXPECT_LE(changes, pool.size() - 1);
}

TEST(ThreadPool, SizeOneRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    const auto caller = std::this_thread::get_id();
    pool.parallelForChunked(8, [&](std::size_t) {
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
    pool.parallelForChunked(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, SurvivesBackToBackLoops)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 50; ++round)
        pool.parallelForChunked(17,
                                [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 50u * 17u);
}

TEST(ThreadPool, PropagatesBodyException)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelForChunked(64,
                                [&](std::size_t i) {
                                    if (i == 13)
                                        throw std::runtime_error("boom");
                                }),
        std::runtime_error);
    // The pool stays usable after a throwing loop.
    std::atomic<int> ok{0};
    pool.parallelForChunked(8, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, FreeHelperFallsBackToSerial)
{
    std::vector<int> order;
    parallelForChunked(nullptr, 5, [&](std::size_t i) {
        order.push_back(static_cast<int>(i));
    });
    // Serial fallback preserves index order.
    std::vector<int> expect(5);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

// The documented partition, including ranges shorter than the pool and
// ranges the pool does not divide: the indices each thread ran form
// exactly the non-empty chunks [w*count/size, (w+1)*count/size), and
// the caller (pool thread 0) runs the first of them.
TEST(ThreadPool, ChunksFollowTheStaticPartition)
{
    const auto caller = std::this_thread::get_id();
    for (const unsigned size : {2u, 3u, 5u, 8u}) {
        ThreadPool pool(size);
        for (const std::size_t count :
             {std::size_t{2}, std::size_t{3}, std::size_t{7},
              std::size_t{13}, std::size_t{64}}) {
            SCOPED_TRACE("size " + std::to_string(size) + ", count " +
                         std::to_string(count));
            std::vector<std::thread::id> owner(count);
            pool.parallelForChunked(count, [&](std::size_t i) {
                owner[i] = std::this_thread::get_id();
            });

            std::vector<std::pair<std::size_t, std::size_t>> want;
            for (std::size_t w = 0; w < size; ++w) {
                const std::size_t lo = count * w / size;
                const std::size_t hi = count * (w + 1) / size;
                if (lo < hi)
                    want.emplace_back(lo, hi);
            }
            std::vector<std::pair<std::size_t, std::size_t>> got;
            std::size_t lo = 0;
            for (std::size_t i = 1; i <= count; ++i) {
                if (i == count || owner[i] != owner[lo]) {
                    got.emplace_back(lo, i);
                    lo = i;
                }
            }
            EXPECT_EQ(got, want);
            // No thread owns two chunks.
            for (std::size_t a = 0; a < got.size(); ++a)
                for (std::size_t b = a + 1; b < got.size(); ++b)
                    EXPECT_NE(owner[got[a].first], owner[got[b].first]);
            if (count >= size) {
                EXPECT_EQ(owner.front(), caller);
            }
        }
    }
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

// runSeeds replays seeds one after another; threads only parallelizes
// each run's chain loop.  Every per-seed report is the one a lone
// FogSystem gives for that seed, at any thread count, and the
// aggregate folds them in seed order.
TEST(ParallelDeterminism, RunSeedsIdenticalAcrossThreadCounts)
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.chains = 2;
    cfg.horizon = 30 * kMin;
    const RunOptions opt{.runs = 4, .baseSeed = 100};
    cfg.threads = 1;
    const AggregateReport serial = ExperimentRunner::runSeeds(cfg, opt);
    cfg.threads = 4;
    const AggregateReport parallel = ExperimentRunner::runSeeds(cfg, opt);
    ASSERT_EQ(serial.reports.size(), 4u);
    ASSERT_EQ(parallel.reports.size(), 4u);
    ScalarStat totals;
    for (std::size_t i = 0; i < 4; ++i) {
        ScenarioConfig lone = cfg;
        lone.threads = 1;
        lone.seed = opt.baseSeed + i;
        const SystemReport want = FogSystem(lone).run();
        EXPECT_EQ(serial.reports[i], want) << "seed slot " << i;
        EXPECT_EQ(parallel.reports[i], want) << "seed slot " << i;
        totals.sample(static_cast<double>(want.totalProcessed()));
    }
    EXPECT_EQ(serial.stat("total_processed").mean(), totals.mean());
    EXPECT_EQ(parallel.stat("total_processed").mean(), totals.mean());
    EXPECT_EQ(parallel.stat("total_processed").stddev(),
              totals.stddev());
    EXPECT_EQ(parallel.stat("yield").mean(),
              serial.stat("yield").mean());
}

} // namespace
} // namespace neofog
