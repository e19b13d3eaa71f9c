/**
 * @file
 * Tests for the ThreadPool and the parallel execution model: same
 * seed must yield a byte-identical SystemReport no matter how many
 * threads run the chains, in one run or across the multi-seed
 * experiment runner's seeds, and chain-major windows must leave the
 * bits of a slot-by-slot sweep.  Registered under the
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
#include "sim/report_io.hh"
#include "sim/thread_pool.hh"
#include "snapshot/archive.hh"

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

// ---------------------------------------------------------------------
// Stepping order.  runWindow runs each chain through every slot of a
// window before the next chain starts (chain-major).  Chains share no
// mutable state, so that must leave the bits an explicit slot-major
// sweep leaves, with an energy observer and a probe log attached.

/** What one stepping of a system leaves behind. */
struct SteppedRun
{
    SystemReport report;
    std::vector<std::string> chainStates;          ///< archive bytes
    std::vector<TimeSeries::Point> energy;         ///< chain 1, node 0
    std::vector<report_io::LabeledSeries> probes;  ///< chain 1
};

/** Finalize @p sys's shards and merge them in chain order. */
SystemReport
mergedShards(FogSystem &sys)
{
    sys.finalizeShards();
    SystemReport report;
    report.idealPackages = sys.config().idealPackages();
    for (const auto &engine : sys.chains())
        report.merge(engine->shard());
    return report;
}

/**
 * Build @p cfg on @p threads, watch chain 1, and let @p step run the
 * horizon and return the merged report.
 */
template <typename Step>
SteppedRun
stepRun(ScenarioConfig cfg, unsigned threads, Step step)
{
    cfg.threads = threads;
    FogSystem sys(cfg);
    StoredEnergyLog energy;
    ChainProbeLog probes;
    sys.setObserver(1, 0, &energy);
    sys.setProbeLog(1, &probes);

    SteppedRun out;
    out.report = step(sys);
    for (const auto &engine : sys.chains()) {
        snapshot::OutArchive ar;
        ar.io("chain", engine->state());
        out.chainStates.push_back(ar.take());
    }
    out.energy = energy.series().points();
    out.probes = probes.series(1);
    return out;
}

void
expectPointsEqual(const std::vector<TimeSeries::Point> &want,
                  const std::vector<TimeSeries::Point> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
        EXPECT_EQ(want[p].when, got[p].when) << "point " << p;
        EXPECT_EQ(want[p].value, got[p].value) << "point " << p;
    }
}

void
expectSameRun(const SteppedRun &want, const SteppedRun &got)
{
    EXPECT_TRUE(want.report == got.report);
    EXPECT_EQ(want.chainStates, got.chainStates);
    EXPECT_FALSE(want.energy.empty());
    expectPointsEqual(want.energy, got.energy);
    ASSERT_EQ(want.probes.size(), got.probes.size());
    for (std::size_t i = 0; i < want.probes.size(); ++i) {
        SCOPED_TRACE(want.probes[i].name);
        EXPECT_EQ(want.probes[i].name, got.probes[i].name);
        EXPECT_FALSE(want.probes[i].points.empty());
        expectPointsEqual(want.probes[i].points, got.probes[i].points);
    }
}

TEST(ParallelDeterminism, WindowsMatchSlotMajorStepping)
{
    std::vector<std::pair<std::string, ScenarioConfig>> scenarios;
    {
        ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 1);
        cfg.balancerPolicy = "distributed";
        cfg.seed = 31;
        scenarios.emplace_back("fios rain", cfg);
    }
    {
        ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
        cfg.nodesPerChain = 40;
        cfg.hopByHopRelay = true;
        cfg.realTimeRequestChance = 0.05;
        cfg.membershipUpdateInterval = 10 * kMin;
        cfg.seed = 32;
        scenarios.emplace_back("relay mux", cfg);
    }
    {
        ScenarioConfig cfg = presets::fig10(presets::nosVp(), 0);
        cfg.balancerPolicy = "greedy";
        cfg.seed = 33;
        scenarios.emplace_back("vp forest", cfg);
    }
    {
        ScenarioConfig cfg = presets::fig11(presets::nosNvpBaseline(), 0);
        cfg.balancerPolicy = "tree";
        cfg.nodeTemplate.enableIncidentalComputing = true;
        cfg.multiplexing = 2;
        cfg.seed = 34;
        scenarios.emplace_back("nvp bridge incidental", cfg);
    }

    for (auto &[name, cfg] : scenarios) {
        SCOPED_TRACE(name);
        cfg.chains = 5;
        cfg.horizon = 60 * cfg.slotInterval;
        const std::int64_t slots = cfg.slotCount();
        ASSERT_EQ(slots, 60);

        const SteppedRun want = stepRun(cfg, 1, [&](FogSystem &sys) {
            for (std::int64_t s = 0; s < slots; ++s)
                for (const auto &engine : sys.chains())
                    engine->runSlot(s);
            return mergedShards(sys);
        });
        // The probe log samples chain 1 at the end of every slot.
        ASSERT_EQ(want.probes.size(), 4u);
        for (const auto &series : want.probes)
            EXPECT_EQ(series.points.size(), 60u) << series.name;

        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            {
                SCOPED_TRACE("run()");
                expectSameRun(want, stepRun(cfg, threads,
                                            [](FogSystem &sys) {
                    return sys.run();
                }));
            }
            SCOPED_TRACE("windows [0, 7) [7, 8) [8, 60)");
            expectSameRun(want, stepRun(cfg, threads, [&](FogSystem &sys) {
                sys.runWindow(0, 7);
                sys.runWindow(7, 8);
                sys.runWindow(8, slots);
                return mergedShards(sys);
            }));
        }
    }
}

} // namespace
} // namespace neofog
