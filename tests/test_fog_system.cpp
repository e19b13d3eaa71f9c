/**
 * @file
 * Integration tests: full FogSystem runs across modes, balancers,
 * power regimes, and multiplexing.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "energy/power_trace.hh"
#include "fog/chain_engine.hh"
#include "fog/experiment.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

ScenarioConfig
smallScenario(OperatingMode mode, const std::string &policy)
{
    ScenarioConfig cfg;
    cfg.nodesPerChain = 10;
    cfg.chains = 1;
    cfg.horizon = kHour;
    cfg.slotInterval = 12 * kSec;
    cfg.traceKind = TraceKind::ForestIndependent;
    cfg.meanIncome = Power::fromMilliwatts(2.6);
    cfg.mode = mode;
    cfg.balancerPolicy = policy;
    cfg.nodeTemplate = presets::systemNodeTemplate();
    cfg.seed = 11;
    return cfg;
}

TEST(ScenarioConfig, SlotArithmetic)
{
    ScenarioConfig cfg;
    cfg.nodesPerChain = 10;
    cfg.chains = 1;
    cfg.horizon = 5 * kHour;
    cfg.slotInterval = 12 * kSec;
    EXPECT_EQ(cfg.slotCount(), 1500);
    EXPECT_EQ(cfg.idealPackages(), 15000u);
}

TEST(ScenarioConfig, TraceKindNames)
{
    EXPECT_EQ(traceKindName(TraceKind::ForestIndependent),
              "forest-independent");
    EXPECT_EQ(traceKindName(TraceKind::RainLow), "rain-low");
}

TEST(FogSystem, RejectsBadConfigs)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::NosVp, "none");
    cfg.nodesPerChain = 0;
    EXPECT_THROW(FogSystem{cfg}, FatalError);

    ScenarioConfig cfg2 = smallScenario(OperatingMode::NosVp, "none");
    cfg2.multiplexing = 0;
    EXPECT_THROW(FogSystem{cfg2}, FatalError);

    ScenarioConfig cfg3 = smallScenario(OperatingMode::NosVp, "bogus");
    EXPECT_THROW(FogSystem{cfg3}, FatalError);
}

/** The FatalError building a system of @p cfg raises, or "". */
std::string
buildError(const ScenarioConfig &cfg)
{
    try {
        const FogSystem sys(cfg);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

// A scenario with several bad fields reports the first in a fixed
// order: the node's own fields, then the loss model, then the
// capacitor config and the RTC's (its own fields before its cap's).
TEST(FogSystem, SeveralBadFieldsReportTheFirst)
{
    using Edit = void (*)(ScenarioConfig &);
    const Edit bad_node = [](ScenarioConfig &c) {
        c.nodeTemplate.incidentalFraction = 2.0;
    };
    const Edit bad_loss = [](ScenarioConfig &c) {
        c.loss.successRate = 0.0;
    };
    const Edit bad_cap = [](ScenarioConfig &c) {
        c.nodeTemplate.cap.capacity = Energy::zero();
    };
    const Edit bad_rtc = [](ScenarioConfig &c) {
        c.nodeTemplate.rtc.chargePriority = 2.0;
    };
    const Edit bad_rtc_cap = [](ScenarioConfig &c) {
        c.nodeTemplate.rtc.cap.leakage = Power::fromWatts(-1.0);
    };
    const auto error = [](std::initializer_list<Edit> edits) {
        ScenarioConfig cfg =
            smallScenario(OperatingMode::FiosNvMote, "distributed");
        cfg.horizon = 10 * cfg.slotInterval;
        for (const Edit edit : edits)
            edit(cfg);
        return buildError(cfg);
    };
    ASSERT_EQ(error({}), "");
    const std::string node = error({bad_node});
    const std::string loss = error({bad_loss});
    const std::string cap = error({bad_cap});
    const std::string rtc = error({bad_rtc});
    const std::string rtc_cap = error({bad_rtc_cap});
    EXPECT_NE(node.find("incidental fraction"), std::string::npos);
    EXPECT_NE(loss.find("success rate"), std::string::npos);
    EXPECT_NE(cap.find("capacity"), std::string::npos);
    EXPECT_NE(rtc.find("RTC charge priority"), std::string::npos);
    EXPECT_NE(rtc_cap.find("leakage"), std::string::npos);

    EXPECT_EQ(error({bad_loss, bad_node}), node);
    EXPECT_EQ(error({bad_cap, bad_node}), node);
    EXPECT_EQ(error({bad_cap, bad_loss}), loss);
    EXPECT_EQ(error({bad_rtc, bad_loss}), loss);
    EXPECT_EQ(error({bad_rtc_cap, bad_loss}), loss);
    EXPECT_EQ(error({bad_rtc, bad_cap}), cap);
    EXPECT_EQ(error({bad_rtc_cap, bad_cap}), cap);
    EXPECT_EQ(error({bad_rtc_cap, bad_rtc}), rtc);
    EXPECT_EQ(error({bad_rtc_cap, bad_rtc, bad_cap, bad_loss, bad_node}),
              node);
}

TEST(FogSystem, ReportInvariants)
{
    FogSystem sys(smallScenario(OperatingMode::FiosNvMote,
                                "distributed"));
    const SystemReport r = sys.run();
    EXPECT_EQ(r.idealPackages, 3000u);
    // Every slot either wakes or fails.
    EXPECT_EQ(r.wakeups + r.depletionFailures, 3000u);
    // Cannot process more than was sampled.
    EXPECT_LE(r.totalProcessed(), r.packagesSampled);
    EXPECT_LE(r.packagesSampled, r.idealPackages);
    EXPECT_GE(r.yield(), 0.0);
    EXPECT_LE(r.yield(), 1.0);
}

TEST(FogSystem, RunTwiceForbidden)
{
    FogSystem sys(smallScenario(OperatingMode::NosVp, "none"));
    sys.run();
    EXPECT_DEATH(sys.run(), "run called twice");
}

TEST(FogSystem, DeterministicForSeed)
{
    const auto cfg = smallScenario(OperatingMode::FiosNvMote,
                                   "distributed");
    FogSystem a(cfg), b(cfg);
    const SystemReport ra = a.run();
    const SystemReport rb = b.run();
    EXPECT_EQ(ra.totalProcessed(), rb.totalProcessed());
    EXPECT_EQ(ra.wakeups, rb.wakeups);
    EXPECT_EQ(ra.packagesInFog, rb.packagesInFog);
    EXPECT_EQ(ra.tasksBalancedAway, rb.tasksBalancedAway);
}

TEST(FogSystem, SeedChangesOutcome)
{
    auto cfg1 = smallScenario(OperatingMode::FiosNvMote, "none");
    auto cfg2 = cfg1;
    cfg2.seed = 999;
    FogSystem a(cfg1), b(cfg2);
    EXPECT_NE(a.run().totalProcessed(), b.run().totalProcessed());
}

TEST(FogSystem, VpProcessesOnlyToCloud)
{
    FogSystem sys(smallScenario(OperatingMode::NosVp, "none"));
    const SystemReport r = sys.run();
    EXPECT_EQ(r.packagesInFog, 0u);
    EXPECT_GT(r.packagesToCloud, 0u);
}

TEST(FogSystem, NvpModesProcessInFog)
{
    FogSystem sys(smallScenario(OperatingMode::NosNvp, "tree"));
    const SystemReport r = sys.run();
    EXPECT_GT(r.packagesInFog, 0u);
    // Fog dominates for NVP systems (paper: ~94%).
    EXPECT_GT(static_cast<double>(r.packagesInFog),
              0.6 * static_cast<double>(r.totalProcessed()));
}

TEST(FogSystem, SystemOrderingMatchesPaper)
{
    const SystemReport vp =
        FogSystem(smallScenario(OperatingMode::NosVp, "none")).run();
    const SystemReport nvp =
        FogSystem(smallScenario(OperatingMode::NosNvp, "tree")).run();
    const SystemReport neo =
        FogSystem(smallScenario(OperatingMode::FiosNvMote,
                                "distributed")).run();
    // NEOFog > NVP-baseline and NEOFog > VP (the one-hour horizon is
    // noisy, so only the strong orderings are asserted).
    EXPECT_GT(neo.totalProcessed(), nvp.totalProcessed());
    EXPECT_GT(neo.totalProcessed(), vp.totalProcessed());
    EXPECT_GT(static_cast<double>(neo.totalProcessed()),
              1.3 * static_cast<double>(vp.totalProcessed()));
}

TEST(FogSystem, DistributedBalancerMovesTasksUnderVariance)
{
    FogSystem sys(smallScenario(OperatingMode::FiosNvMote,
                                "distributed"));
    const SystemReport r = sys.run();
    EXPECT_GT(r.tasksBalancedAway, 0u);
    EXPECT_GT(r.lbMessages, 0u);
}

TEST(FogSystem, MultiplexingHelpsInLowPower)
{
    auto mk = [](int mux) {
        ScenarioConfig cfg =
            presets::fig13(presets::fiosNeofog(), mux);
        cfg.horizon = 2 * kHour;
        return cfg;
    };
    const SystemReport m1 = FogSystem(mk(1)).run();
    const SystemReport m3 = FogSystem(mk(3)).run();
    EXPECT_GT(static_cast<double>(m3.totalProcessed()),
              1.5 * static_cast<double>(m1.totalProcessed()));
}

TEST(FogSystem, MultiplexingNeutralInHighPower)
{
    auto mk = [](int mux) {
        ScenarioConfig cfg =
            presets::fig12(presets::fiosNeofog(), mux);
        cfg.horizon = 2 * kHour;
        return cfg;
    };
    // A single 2-hour seed is too noisy to pin the "roughly neutral"
    // property, so average a few seeds (the paper itself averages
    // five power profiles per figure).
    const RunOptions opts{.runs = 5, .baseSeed = 500};
    const AggregateReport m1 =
        ExperimentRunner::runSeeds(mk(1), opts);
    const AggregateReport m3 =
        ExperimentRunner::runSeeds(mk(3), opts);
    const double gain = m3.stat("total_processed").mean() /
                        m1.stat("total_processed").mean();
    EXPECT_LT(gain, 1.35);
}

TEST(FogSystem, MultiplexedSystemHasCorrectNodeCount)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::FiosNvMote,
                                       "distributed");
    cfg.multiplexing = 3;
    FogSystem sys(cfg);
    EXPECT_EQ(sys.physicalPerChain(), 30u);
    sys.run();
    // Physical wakeups are spread across clones: total logical slots
    // still bounded by ideal.
    std::uint64_t wakeups = 0;
    for (std::size_t i = 0; i < 30; ++i)
        wakeups += sys.node(0, i).stats().wakeups.value();
    EXPECT_LE(wakeups, cfg.idealPackages());
}

TEST(FogSystem, MultipleChainsAggregate)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::FiosNvMote,
                                       "distributed");
    cfg.chains = 3;
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    EXPECT_EQ(r.idealPackages, 9000u);
    EXPECT_GT(r.totalProcessed(), 0u);
}

TEST(FogSystem, DependentTracesLessBalancing)
{
    ScenarioConfig indep = smallScenario(OperatingMode::FiosNvMote,
                                         "distributed");
    ScenarioConfig dep = indep;
    dep.traceKind = TraceKind::BridgeDependent;
    const SystemReport ri = FogSystem(indep).run();
    const SystemReport rd = FogSystem(dep).run();
    // Dependent power -> less stored-energy variance -> the balancer
    // activates less (paper §5.2.2).
    EXPECT_LE(rd.tasksBalancedAway, ri.tasksBalancedAway);
}

TEST(FogSystem, EnergyAccountingSane)
{
    FogSystem sys(smallScenario(OperatingMode::FiosNvMote,
                                "distributed"));
    sys.run();
    for (std::size_t i = 0; i < 10; ++i) {
        const Node &n = sys.node(0, i);
        const NodeStats &st = n.stats();
        const double harvested = st.harvestedTotal.millijoules();
        const double spent =
            st.spentCompute.millijoules() + st.spentTx.millijoules() +
            st.spentRx.millijoules() + st.spentSample.millijoules() +
            st.spentWake.millijoules();
        // A node cannot spend more (at load) than it harvested
        // (ambient) plus its initial charge.
        EXPECT_LE(spent, harvested + 60.0 + 1e-6);
        EXPECT_GE(harvested, 0.0);
    }
}

TEST(FogSystem, StoredEnergySeriesRecorded)
{
    StoredEnergyLog log;
    FogSystem sys(smallScenario(OperatingMode::NosNvp, "tree"));
    sys.setObserver(0, 3, &log);
    sys.run();
    const auto &points = log.series().points();
    EXPECT_GT(points.size(), 100u);
    for (const auto &pt : points) {
        EXPECT_GE(pt.value, 0.0);
        EXPECT_LE(pt.value, 250.0 + 1e-9);
    }
}

// A watched chain node logs one point per slot it is scheduled, at
// that slot's start, on both income paths: the rain hoist
// (ChainEngine::beginSlotBatch) and each node's own beginSlot.
TEST(FogSystem, EnergyLogGetsOnePointPerScheduledSlot)
{
    for (const TraceKind kind :
         {TraceKind::RainLow, TraceKind::ForestIndependent}) {
        ScenarioConfig cfg =
            smallScenario(OperatingMode::FiosNvMote, "distributed");
        cfg.traceKind = kind;
        cfg.multiplexing = 3;
        // No rotation: clone p of a group runs the slots s = p mod 3.
        cfg.membershipUpdateInterval = 0;
        StoredEnergyLog logs[3];
        FogSystem sys(cfg);
        for (std::size_t p = 0; p < 3; ++p)
            sys.setObserver(0, p, &logs[p]);
        sys.run();
        for (std::size_t p = 0; p < 3; ++p) {
            const auto &points = logs[p].series().points();
            const NodeStats &st = sys.node(0, p).stats();
            EXPECT_EQ(points.size(),
                      st.wakeups.value() + st.depletionFailures.value());
            ASSERT_EQ(points.size(), 100u) << traceKindName(kind) << p;
            for (std::size_t k = 0; k < points.size(); ++k)
                EXPECT_EQ(points[k].when,
                          static_cast<Tick>(p + 3 * k) * cfg.slotInterval)
                    << traceKindName(kind) << ", node " << p << ", " << k;
        }
    }
}

// ---------------------------------------------------------------------
// Income paths.  A rain chain takes its income from the scenario's one
// prefix-summed rain stream through the income hoist
// (ChainEngine::beginSlotBatch); every other trace kind steps each node
// through its own trace.  Both are pinned to reports written down by
// the tree that still had a per-node rain path and a constant-level
// hoist arm: counters exactly, energies to 12 significant digits
// (report bytes are compared across trees by md5, not across
// compilers here).
// ---------------------------------------------------------------------

/** Every stored report metric, one "name value" line each. */
std::string
storedMetrics(const SystemReport &r)
{
    std::ostringstream os;
    os.precision(12);
    for (const auto &d : SystemReport::metrics().metrics()) {
        if (d.derived())
            continue;
        os << '\n' << d.name << ' ';
        if (d.integral())
            os << d.getU64(r);
        else
            os << d.get(r);
    }
    return os.str();
}

TEST(IncomePaths, SharedRainStreamReportIsPinned)
{
    // Fig 13's FIOS + distributed balancing at multiplexing 3, shrunk.
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.chains = 3;
    cfg.horizon = kHour;
    cfg.seed = 13;
    EXPECT_EQ(storedMetrics(FogSystem(cfg).run()), R"(
ideal_packages 9000
wakeups 8006
depletion_failures 994
packages_sampled 8006
packages_to_cloud 0
packages_in_fog 2823
packages_incidental 0
tasks_balanced_away 6
lb_messages 19045
lb_failed_regions 112
tx_lost 120
tx_aborted 0
orphan_scans 670
rejoins 848
membership_updates 0
rt_requests_served 0
rt_requests_missed 0
relay_hops 0
relay_drops 0
rtc_resyncs 0
cap_overflow_mj 25703.665969
spent_compute_mj 97141.3473086
spent_tx_mj 4268.9441016
spent_rx_mj 812.961792
spent_sample_mj 442.4243696
spent_wake_mj 22.12506136
harvested_mj 241402.276725)");
}

// A system builds what its nodes share once: every node of every
// chain, in a full system and in a partition, points at its system's
// one spec, whose config is the scenario's template in the scenario's
// mode and slot interval, and the node ids run on across the chains.
TEST(ChainEngine, NodesShareOneSpec)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::NosNvp, "none");
    cfg.multiplexing = 2;
    cfg.chains = 4;
    const FogSystem full(cfg);
    const FogSystem part(cfg, 1, 3);
    for (const FogSystem *sys : {&full, &part}) {
        const std::size_t physical = sys->physicalPerChain();
        ASSERT_EQ(physical, 20u);
        const Node::Spec &spec = sys->node(0, 0).spec();
        EXPECT_EQ(spec.cfg.mode, OperatingMode::NosNvp);
        EXPECT_EQ(spec.cfg.rtc.interval, cfg.slotInterval);
        ASSERT_EQ(sys->chains().size(), sys->chainHi() - sys->chainLo());
        for (std::size_t c = 0; c < sys->chains().size(); ++c) {
            const ChainEngine &engine = *sys->chains()[c];
            ASSERT_EQ(engine.nodes().size(), physical);
            EXPECT_FALSE(engine.soa()[0].nvrf);
            for (std::size_t p = 0; p < physical; ++p) {
                EXPECT_EQ(&engine.node(p).spec(), &spec) << c << ' ' << p;
                EXPECT_EQ(engine.node(p).id(),
                          (sys->chainLo() + c) * physical + p)
                    << c << ' ' << p;
            }
        }
    }
    EXPECT_NE(&part.node(0, 0).spec(), &full.node(0, 0).spec());
}

// The chain stream gives each node one draw it discards and then its
// rain gain, node by node.
TEST(ChainEngine, RainGainsReplayTheChainStream)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::FiosNvMote, "none");
    cfg.traceKind = TraceKind::RainLow;
    cfg.multiplexing = 3;
    const Node::Spec spec(cfg.nodeConfig());
    const ChainEngine engine(
        cfg, spec, Node::freshState(spec), 0, 0, Rng(41),
        std::make_shared<ConstantTrace>(Power::fromWatts(1.0)));
    Rng replay(41);
    for (std::size_t p = 0; p < engine.nodes().size(); ++p) {
        replay.next();
        const double gain =
            cfg.meanIncome.watts() * traces::rainNodeGain(replay);
        EXPECT_EQ(
            static_cast<const ScaledTrace &>(engine.node(p).trace()).scale(),
            gain)
            << p;
    }
}

TEST(IncomePaths, ConstantLevelReportIsPinned)
{
    ScenarioConfig cfg;
    cfg.chains = 4;
    cfg.nodesPerChain = 10;
    cfg.multiplexing = 2;
    cfg.mode = OperatingMode::FiosNvMote;
    cfg.traceKind = TraceKind::Constant;
    cfg.meanIncome = Power::fromMilliwatts(0.9);
    cfg.balancerPolicy = "distributed";
    cfg.horizon = kHour;
    cfg.seed = 5;
    EXPECT_EQ(storedMetrics(FogSystem(cfg).run()), R"(
ideal_packages 12000
wakeups 12000
depletion_failures 0
packages_sampled 12000
packages_to_cloud 0
packages_in_fog 8262
packages_incidental 0
tasks_balanced_away 0
lb_messages 38581
lb_failed_regions 217
tx_lost 58
tx_aborted 0
orphan_scans 0
rejoins 0
membership_updates 0
rt_requests_served 0
rt_requests_missed 0
relay_hops 0
relay_drops 0
rtc_resyncs 0
cap_overflow_mj 0
spent_compute_mj 132508.235294
spent_tx_mj 9072.908928
spent_rx_mj 0
spent_sample_mj 746.0928
spent_wake_mj 31.336896
harvested_mj 258768)");
}

} // namespace
} // namespace neofog
