/**
 * @file
 * Tests for the Node slot-level state machine.
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "energy/trace_cache.hh"
#include "hw/rf.hh"
#include "node/node.hh"
#include "sim/logging.hh"
#include "snapshot/archive.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

constexpr Tick kSlot = 12 * kSec;

Node::Config
baseConfig(OperatingMode mode)
{
    Node::Config cfg;
    cfg.mode = mode;
    cfg.cap.capacity = 250.0_mJ;
    cfg.cap.initial = 125.0_mJ;
    cfg.cap.leakage = Power::fromMicrowatts(15.0);
    cfg.sensor = sensors::lis331dlh();
    cfg.processorMhz = 50.0;
    cfg.rawPackageBytes = 256;
    cfg.compressedPackageBytes = 16;
    cfg.samplesPerPackage = 64;
    cfg.fogInstructionsPerPackage = 20'000'000;
    return cfg;
}

std::unique_ptr<Node>
makeNode(OperatingMode mode, Power income,
         Node::Config cfg_override = Node::Config{},
         bool use_override = false)
{
    const Node::Config cfg =
        use_override ? cfg_override : baseConfig(mode);
    return std::make_unique<Node>(
        cfg, std::make_unique<ConstantTrace>(income));
}

TEST(Node, ModeNames)
{
    EXPECT_EQ(operatingModeName(OperatingMode::NosVp), "NOS-VP");
    EXPECT_EQ(operatingModeName(OperatingMode::NosNvp), "NOS-NVP");
    EXPECT_EQ(operatingModeName(OperatingMode::FiosNvMote),
              "FIOS-NV-mote");
}

TEST(Node, RequiresTrace)
{
    EXPECT_THROW(
        Node(baseConfig(OperatingMode::NosVp), nullptr),
        FatalError);
}

// The sensor spec is read from the node's config, so the node checks
// it beside the package shape.
TEST(Node, RequiresSensorBytesPerSample)
{
    Node::Config cfg = baseConfig(OperatingMode::NosVp);
    cfg.sensor.bytesPerSample = 0;
    EXPECT_THROW(
        Node(cfg, std::make_unique<ConstantTrace>(1.0_mW)),
        FatalError);
}

// An incidental task's instruction count is cast from the fraction; a
// NaN or negative one (a hostile snapshot config) would make that cast
// undefined instead of failing.
TEST(Node, RequiresIncidentalFractionInUnitInterval)
{
    for (const double fraction :
         {-5.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
        Node::Config cfg = baseConfig(OperatingMode::NosNvp);
        cfg.incidentalFraction = fraction;
        EXPECT_THROW(Node(cfg, std::make_unique<ConstantTrace>(1.0_mW)),
                     FatalError)
            << fraction;
    }
}

/** Records the duration and energy of every Sample phase. */
class SampleLog : public NodeObserver
{
  public:
    struct Entry
    {
        Tick duration;
        Energy energy;
    };

    void
    onPhase(std::uint32_t, Phase phase, Tick, Tick duration,
            Energy energy) override
    {
        if (phase == Phase::Sample)
            entries.push_back({duration, energy});
    }

    std::vector<Entry> entries;
};

/** A sample burst's cost without and with the sensor's initialization. */
struct SampleCosts
{
    SampleLog::Entry warm;
    SampleLog::Entry cold;
};

SampleCosts
sampleCosts(const Node::Config &cfg)
{
    const SensorSpec &sensor = cfg.sensor;
    const double n = static_cast<double>(cfg.samplesPerPackage);
    const Energy burst = sensor.sampleEnergy() * n;
    const Energy write = cfg.buffer.writeEnergy(cfg.rawPackageBytes);
    const Tick burst_time =
        static_cast<Tick>(n * static_cast<double>(sensor.sampleLatency));
    return {{burst_time, burst + write},
            {sensor.initLatency + burst_time,
             sensor.initEnergy() + burst + write}};
}

// Sensor configuration registers are volatile: a NOS node powers off
// between slots, so its first sample after every beginSlot pays the
// sensor's initialization again.
TEST(Node, FirstSampleAfterBeginSlotPaysSensorInit)
{
    for (const OperatingMode mode :
         {OperatingMode::NosVp, OperatingMode::NosNvp}) {
        const Node::Config cfg = baseConfig(mode);
        Node node(cfg, std::make_unique<ConstantTrace>(5.0_mW));
        SampleLog log;
        node.setObserver(&log);
        const SampleCosts cost = sampleCosts(cfg);
        for (int slot = 0; slot < 3; ++slot) {
            node.beginSlot(slot * kSlot, kSlot);
            EXPECT_FALSE(node.state().sensorInitialized);
            ASSERT_TRUE(node.tryWake());
            ASSERT_TRUE(node.samplePackage());
            EXPECT_TRUE(node.state().sensorInitialized);
            ASSERT_EQ(log.entries.size(), static_cast<std::size_t>(slot) + 1);
            EXPECT_EQ(log.entries.back().duration, cost.cold.duration);
            EXPECT_EQ(log.entries.back().energy.joules(),
                      cost.cold.energy.joules());
        }
    }
}

// Within one slot the registers hold: a second sample pays only the
// burst and the buffer write.
TEST(Node, SecondSampleInSlotSkipsSensorInit)
{
    for (const OperatingMode mode :
         {OperatingMode::NosVp, OperatingMode::NosNvp}) {
        const Node::Config cfg = baseConfig(mode);
        Node node(cfg, std::make_unique<ConstantTrace>(5.0_mW));
        SampleLog log;
        node.setObserver(&log);
        node.beginSlot(0, kSlot);
        ASSERT_TRUE(node.tryWake());
        ASSERT_TRUE(node.samplePackage());
        ASSERT_TRUE(node.samplePackage());
        ASSERT_EQ(log.entries.size(), 2u);
        const SampleCosts cost = sampleCosts(cfg);
        EXPECT_EQ(log.entries[1].duration, cost.warm.duration);
        EXPECT_EQ(log.entries[1].energy.joules(), cost.warm.energy.joules());
        EXPECT_GT(log.entries[0].energy, log.entries[1].energy);
        EXPECT_EQ(node.stats().packagesSampled.value(), 2u);
    }
}

TEST(Node, BeginSlotBanksIncome)
{
    auto node = makeNode(OperatingMode::NosNvp, 5.0_mW);
    const Energy before = node->stored();
    node->beginSlot(0, kSlot);
    // NOS front end: 5 mW x 12 s x 0.8 x 0.7 minus RTC share & leakage.
    const double banked =
        node->stored().millijoules() - before.millijoules();
    EXPECT_NEAR(banked, 5.0 * 12.0 * 0.8 * 0.7 * 0.98, 2.0);
}

TEST(Node, FiosIncomeGoesToDirectBudgetFirst)
{
    auto node = makeNode(OperatingMode::FiosNvMote, 5.0_mW);
    const Energy before = node->stored();
    node->beginSlot(0, kSlot);
    // The slot's income is held as direct budget, not banked yet
    // (minus leakage the cap should be unchanged).
    EXPECT_NEAR(node->stored().millijoules(), before.millijoules(), 0.5);
    // Unused direct budget banks at the next slot boundary.
    node->beginSlot(kSlot, kSlot);
    EXPECT_GT(node->stored().millijoules(), before.millijoules() + 20.0);
}

TEST(Node, WakeCountsAndCosts)
{
    auto node = makeNode(OperatingMode::NosNvp, 2.0_mW);
    node->beginSlot(0, kSlot);
    EXPECT_TRUE(node->tryWake());
    EXPECT_TRUE(node->awake());
    EXPECT_EQ(node->stats().wakeups.value(), 1u);
    EXPECT_EQ(node->stats().depletionFailures.value(), 0u);
}

TEST(Node, DepletedNodeFailsToWake)
{
    Node::Config cfg = baseConfig(OperatingMode::NosNvp);
    cfg.cap.initial = Energy::zero();
    auto node = makeNode(OperatingMode::NosNvp,
                         Power::fromMicrowatts(1.0), cfg, true);
    node->beginSlot(0, kSlot);
    EXPECT_FALSE(node->tryWake());
    EXPECT_EQ(node->stats().depletionFailures.value(), 1u);
    EXPECT_FALSE(node->awake());
}

TEST(Node, VpActivationCheaperThanNvp)
{
    auto vp = makeNode(OperatingMode::NosVp, 1.0_mW);
    auto nvp = makeNode(OperatingMode::NosNvp, 1.0_mW);
    // NVP modes gate on wake+sample+task/4 (the higher activation
    // threshold of §5.2.1).
    EXPECT_LT(vp->activationCost().joules(),
              nvp->activationCost().joules());
}

TEST(Node, ClassifyLaddersWithStoredEnergy)
{
    Node::Config cfg = baseConfig(OperatingMode::NosNvp);
    cfg.cap.initial = Energy::zero();
    auto node = makeNode(OperatingMode::NosNvp,
                         Power::fromMicrowatts(1.0), cfg, true);
    node->beginSlot(0, kSlot);
    EXPECT_EQ(node->classify(), EnergyClass::Dead);

    Node::Config cfg2 = baseConfig(OperatingMode::NosNvp);
    cfg2.cap.initial = 20.0_mJ;
    auto node2 = makeNode(OperatingMode::NosNvp,
                          Power::fromMicrowatts(1.0), cfg2, true);
    node2->beginSlot(0, kSlot);
    EXPECT_EQ(node2->classify(), EnergyClass::Awake);

    Node::Config cfg3 = baseConfig(OperatingMode::NosNvp);
    cfg3.cap.initial = 110.0_mJ;
    auto node3 = makeNode(OperatingMode::NosNvp,
                          Power::fromMicrowatts(1.0), cfg3, true);
    node3->beginSlot(0, kSlot);
    EXPECT_EQ(node3->classify(), EnergyClass::Ready);

    Node::Config cfg4 = baseConfig(OperatingMode::NosNvp);
    cfg4.cap.initial = 250.0_mJ;
    auto node4 = makeNode(OperatingMode::NosNvp,
                          Power::fromMicrowatts(1.0), cfg4, true);
    node4->beginSlot(0, kSlot);
    EXPECT_EQ(node4->classify(), EnergyClass::Extra);
}

TEST(Node, SamplePackageFillsQueue)
{
    auto node = makeNode(OperatingMode::NosNvp, 2.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    EXPECT_TRUE(node->samplePackage());
    EXPECT_EQ(node->pendingPackages(), 1);
    EXPECT_EQ(node->stats().packagesSampled.value(), 1u);
}

TEST(Node, ExecuteTasksConsumesEnergyAndQueue)
{
    auto node = makeNode(OperatingMode::FiosNvMote, 8.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    ASSERT_TRUE(node->samplePackage());
    const Energy before = node->stored();
    const int done = node->executeTasks(1);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(node->pendingPackages(), 0);
    EXPECT_GT(node->stats().spentCompute.joules(), 0.0);
    // FIOS compute draws the direct budget first; the cap should not
    // have dropped by the full task cost.
    const double drop =
        before.millijoules() - node->stored().millijoules();
    EXPECT_LT(drop, node->taskCost().millijoules());
}

TEST(Node, ExecuteTasksBoundedBySlotTime)
{
    auto node = makeNode(OperatingMode::FiosNvMote, 50.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    node->samplePackage();
    node->addPendingPackages(10);
    // 20M instructions at 50 MHz/12cpi = 4.8 s per task: at most 2 fit
    // in a 12 s slot.
    const int done = node->executeTasks(10);
    EXPECT_LE(done, 2);
    EXPECT_GE(done, 1);
}

TEST(Node, PackageDeadlineExpiresStaleWork)
{
    Node::Config cfg = baseConfig(OperatingMode::NosNvp);
    cfg.packageDeadlineSlots = 2;
    auto node = makeNode(OperatingMode::NosNvp, 2.0_mW, cfg, true);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    ASSERT_TRUE(node->samplePackage());
    EXPECT_EQ(node->pendingPackages(), 1);
    // One slot later it is still fresh...
    node->beginSlot(kSlot, kSlot);
    EXPECT_EQ(node->pendingPackages(), 1);
    // ...two slots later it expired.
    node->beginSlot(2 * kSlot, kSlot);
    EXPECT_EQ(node->pendingPackages(), 0);
    EXPECT_GE(node->stats().samplesDiscarded.value(), 1u);
}

TEST(Node, TransmitPaysInitOncePerSlot)
{
    auto node = makeNode(OperatingMode::FiosNvMote, 10.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    const Energy before = node->stored();
    ASSERT_TRUE(node->payTransmit(node->spec().resultPackage.send));
    const Energy after_first = node->stored();
    ASSERT_TRUE(node->payTransmit(node->spec().resultPackage.send));
    const Energy after_second = node->stored();
    // Second TX is cheaper: no init.
    EXPECT_LT(before.joules() - after_first.joules() -
                  (after_first.joules() - after_second.joules()),
              before.joules() - after_first.joules());
    EXPECT_GT(node->stats().spentTx.joules(), 0.0);
}

TEST(Node, TransmitFailsWhenBroke)
{
    Node::Config cfg = baseConfig(OperatingMode::NosVp);
    cfg.cap.initial = 1.0_mJ;
    auto node = makeNode(OperatingMode::NosVp,
                         Power::fromMicrowatts(10.0), cfg, true);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake()); // VP boot is cheap
    // Full VP software-RF TX needs tens of mJ.
    EXPECT_FALSE(node->payTransmit(node->spec().rawPackage.send));
}

TEST(Node, VpDiscardsPendingOnPowerOff)
{
    auto node = makeNode(OperatingMode::NosVp, 20.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    node->samplePackage();
    EXPECT_EQ(node->pendingPackages(), 1);
    const int dropped = node->discardPendingPackages();
    EXPECT_EQ(dropped, 1);
    EXPECT_EQ(node->pendingPackages(), 0);
}

TEST(Node, SpareCapacityGrowsWithEnergy)
{
    Node::Config rich_cfg = baseConfig(OperatingMode::FiosNvMote);
    rich_cfg.cap.initial = 250.0_mJ;
    auto rich = makeNode(OperatingMode::FiosNvMote, 10.0_mW, rich_cfg,
                         true);
    Node::Config poor_cfg = baseConfig(OperatingMode::FiosNvMote);
    poor_cfg.cap.initial = 5.0_mJ;
    auto poor = makeNode(OperatingMode::FiosNvMote,
                         Power::fromMicrowatts(100.0), poor_cfg, true);
    rich->beginSlot(0, kSlot);
    poor->beginSlot(0, kSlot);
    EXPECT_GT(rich->spareTaskCapacity(), poor->spareTaskCapacity());
    // The poor node offers at most a sliver (its tiny unused direct
    // budget); nowhere near a whole task.
    EXPECT_LT(poor->spareTaskCapacity(), 0.1);
}

TEST(Node, RelativeTaskCostReflectsSpendthrift)
{
    auto low = makeNode(OperatingMode::FiosNvMote,
                        Power::fromMicrowatts(200.0));
    auto high = makeNode(OperatingMode::FiosNvMote, 20.0_mW);
    low->beginSlot(0, kSlot);
    high->beginSlot(0, kSlot);
    EXPECT_LT(low->relativeTaskCost(), high->relativeTaskCost());
    auto vp = makeNode(OperatingMode::NosVp, 1.0_mW);
    vp->beginSlot(0, kSlot);
    EXPECT_DOUBLE_EQ(vp->relativeTaskCost(), 1.0);
}

// A node keeps no history of its own: an attached StoredEnergyLog
// gets one point per slot, at the slot's start.
TEST(Node, EnergyPointRecording)
{
    StoredEnergyLog log;
    auto node = makeNode(OperatingMode::NosNvp, 1.0_mW);
    node->setObserver(&log);
    node->beginSlot(0, kSlot);
    node->beginSlot(kSlot, kSlot);
    const auto &points = log.series().points();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].when, 0);
    EXPECT_EQ(points[1].when, kSlot);
}

TEST(Node, GapAccrualForMultiplexedClones)
{
    // A clone sleeping through 2 slots banks the gap income when its
    // turn comes.
    auto node = makeNode(OperatingMode::FiosNvMote, 5.0_mW);
    node->beginSlot(0, kSlot);
    const Energy after_first = node->stored();
    // Skip two slots; wake at slot 3.
    node->beginSlot(3 * kSlot, kSlot);
    const double gained =
        node->stored().millijoules() - after_first.millijoules();
    // 3 slots' income routed through the charge path (one unused direct
    // budget + two gap slots), roughly 3 x 5mW x 12s x 0.56 = 100 mJ,
    // capped by capacity.
    EXPECT_GT(gained, 50.0);
}

/** A node's full snapshot walk (its NodeState), as bytes. */
std::string
archiveBytes(Node &node)
{
    snapshot::OutArchive ar;
    ar.io("node", node.state());
    return ar.take();
}

// The income hoist (ChainEngine::beginSlotBatch) integrates each
// accrual window of a rain chain's shared stream once and feeds every
// node that integral (x the node's scale) through beginSlotWithIncome.
// A node fed that way must end every slot on the same bytes as a twin
// integrating its own trace in beginSlot, across multiplexed gaps and
// with slot work spending from the capacitor.  The constant level
// checks the same split of integration from banking on an analytic
// trace.
TEST(Node, IncomeHoistMatchesPerNodeIntegration)
{
    const Tick horizon = 3 * kHour;
    const Tick span = horizon + 4 * kSlot;
    const auto rain = std::make_shared<CumulativeTrace>(
        traces::makeRainUnitStream(11, span), span);
    const ConstantTrace level(2.2_mW);
    const double scale = 0.0022 * 1.3;

    struct Shape
    {
        const char *name;
        std::function<std::unique_ptr<PowerTrace>()> trace;
        std::function<Energy(Tick, Tick)> hoisted;
    };
    const Shape shapes[] = {
        {"scaled rain",
         [&] { return std::make_unique<ScaledTrace>(scale, rain); },
         [&](Tick from, Tick to) {
             return rain->integrate(from, to) * scale;
         }},
        {"constant",
         [&] { return std::make_unique<ConstantTrace>(2.2_mW); },
         [&](Tick from, Tick to) { return level.integrate(from, to); }},
    };

    for (const Shape &shape : shapes) {
        for (const OperatingMode mode :
             {OperatingMode::NosVp, OperatingMode::NosNvp,
              OperatingMode::FiosNvMote}) {
            const Node::Config cfg = baseConfig(mode);
            Node stepped(cfg, shape.trace());
            Node hoisted(cfg, shape.trace());
            std::minstd_rand gaps(20260808);
            const std::string what = std::string(shape.name) + ", " +
                                     operatingModeName(mode);

            Tick t = 0;
            for (int slot = 0; t + kSlot <= horizon; ++slot) {
                stepped.beginSlot(t, kSlot);
                Energy gap = Energy::zero();
                const Tick last = hoisted.lastAccrualTime();
                if (t > last)
                    gap = shape.hoisted(last, t);
                hoisted.beginSlotWithIncome(t, kSlot, gap,
                                            shape.hoisted(t, t + kSlot));
                for (Node *n : {&stepped, &hoisted}) {
                    if (n->tryWake()) {
                        n->samplePackage();
                        n->executeTasks(1);
                    }
                }
                ASSERT_EQ(archiveBytes(stepped), archiveBytes(hoisted))
                    << what << ", slot " << slot;
                // Multiplexed clones sleep through 0-2 slots between
                // turns, so gap windows of several lengths accrue.
                t += kSlot * static_cast<Tick>(1 + gaps() % 3);
            }
        }
    }
}

// Chain nodes share one spec and one shard; each facade must read and
// write only its own row, so stepping one node leaves its neighbour's
// bytes as they were.
TEST(Node, FacadesBindTheirOwnShardRow)
{
    const Node::Spec spec(baseConfig(OperatingMode::FiosNvMote));
    const NodeState fresh = Node::freshState(spec);
    NodeShard shard;
    shard.reserve(2);
    Node a(spec, 1, std::make_unique<ConstantTrace>(3.0_mW),
           shard.add(fresh));
    Node b(spec, 2, std::make_unique<ConstantTrace>(1.0_mW),
           shard.add(fresh));
    ASSERT_EQ(shard.rows(), 2u);
    EXPECT_EQ(&a.state(), &shard[0]);
    EXPECT_EQ(&b.state(), &shard[1]);
    EXPECT_EQ(&a.spec(), &spec);
    EXPECT_EQ(&b.spec(), &spec);
    EXPECT_EQ(a.id(), 1u);
    EXPECT_EQ(b.id(), 2u);

    const std::string b_before = archiveBytes(b);
    a.capacitor().drain(100.0_mJ);
    EXPECT_DOUBLE_EQ(shard[0].cap.stored.joules(), 0.025);
    EXPECT_DOUBLE_EQ(shard[1].cap.stored.joules(), 0.125);
    a.rtc().advance(kHour, Energy::zero());
    EXPECT_LT(shard[0].rtc.cap.stored, shard[1].rtc.cap.stored);
    a.beginSlot(0, kSlot);
    if (a.tryWake())
        a.samplePackage();
    EXPECT_EQ(archiveBytes(b), b_before);

    b.beginSlot(0, kSlot);
    EXPECT_EQ(b.capacitor().stored(), shard[1].cap.stored);
    EXPECT_EQ(b.rtc().desyncCount(), shard[1].rtc.desyncs);
    EXPECT_EQ(b.lastAccrualTime(), shard[1].lastAccrual);
}

// A standalone node builds its own spec, so two nodes of one config
// share no processor or radio, and the spec stays put when its node
// moves.
TEST(Node, StandaloneNodesOwnTheirSpecs)
{
    Node::Config cfg = baseConfig(OperatingMode::FiosNvMote);
    cfg.id = 7;
    Node a(cfg, std::make_unique<ConstantTrace>(1.0_mW));
    Node b(cfg, std::make_unique<ConstantTrace>(1.0_mW));
    EXPECT_NE(&a.spec(), &b.spec());
    EXPECT_NE(&a.spec().cpu, &b.spec().cpu);
    EXPECT_NE(&a.spec().rf, &b.spec().rf);
    EXPECT_EQ(a.id(), 7u);
    EXPECT_TRUE(a.state().nvrf);

    const Node::Spec *spec = &a.spec();
    const Node moved = std::move(a);
    EXPECT_EQ(&moved.spec(), spec);
    EXPECT_EQ(moved.id(), 7u);
}

// A node whose RTC lost sync must archive the cleared flag and the
// desync count and load them into a fresh twin, which then steps on
// the same bytes as the original.
TEST(Node, SnapshotRestoresDesyncedRtc)
{
    Node::Config cfg = baseConfig(OperatingMode::NosNvp);
    cfg.cap.initial = Energy::zero();
    cfg.rtc.cap.initial = Energy::fromMicrojoules(50.0);
    cfg.rtc.cap.capacity = Energy::fromMillijoules(1.0);
    const auto make = [&] {
        return Node(cfg, std::make_unique<ConstantTrace>(Power::zero()));
    };
    Node node = make();
    Tick t = 0;
    for (; node.rtc().synchronized() && t < kHour; t += kSlot)
        node.beginSlot(t, kSlot);
    ASSERT_EQ(node.rtc().desyncCount(), 1u);

    const std::string blob = archiveBytes(node);
    Node twin = make();
    snapshot::InArchive in{std::string_view(blob)};
    in.io("node", twin.state());
    EXPECT_TRUE(in.atEnd());
    EXPECT_FALSE(twin.rtc().synchronized());
    EXPECT_EQ(twin.rtc().desyncCount(), 1u);
    EXPECT_EQ(archiveBytes(twin), blob);

    for (int i = 0; i < 3; ++i, t += kSlot) {
        node.beginSlot(t, kSlot);
        twin.beginSlot(t, kSlot);
        EXPECT_EQ(archiveBytes(twin), archiveBytes(node)) << "slot " << i;
    }
}

/** A fresh node state with a software radio. */
NodeState
plainState(const SuperCapacitor::Config &cap, const Rtc::Config &rtc,
           std::size_t pending_depth = 1)
{
    return NodeState(SuperCapacitor::initialState(cap),
                     Rtc::initialState(rtc), pending_depth,
                     /*nvrf=*/false);
}

// A new row starts from the configs' initial charges with clean
// accounting, a synchronized RTC and its own pending-age queue; rows
// never move, and adding past the reserved count is refused.
TEST(NodeShard, AddRowSeedsFreshEnergyCells)
{
    const SuperCapacitor::Config cap{250.0_mJ, 7.0_mJ,
                                     Power::fromMicrowatts(15.0)};
    Rtc::Config rtc;
    rtc.cap.initial = 30.0_mJ;
    NodeShard shard;
    shard.reserve(2);
    const NodeState *first = &shard.add(plainState(cap, rtc, 3));
    const NodeState *second = &shard.add(plainState(cap, rtc, 2));
    ASSERT_EQ(shard.rows(), 2u);
    EXPECT_EQ(first, &shard[0]);
    EXPECT_EQ(second, &shard[1]);

    for (std::size_t r = 0; r < 2; ++r) {
        const NodeState &s = shard[r];
        EXPECT_EQ(s.cap.stored, cap.initial);
        EXPECT_EQ(s.rtc.cap.stored, rtc.cap.initial);
        for (const Energy zero :
             {s.cap.chargedTotal, s.cap.overflowTotal, s.cap.leakedTotal,
              s.cap.dischargedTotal, s.rtc.cap.chargedTotal,
              s.rtc.cap.overflowTotal, s.rtc.cap.leakedTotal,
              s.rtc.cap.dischargedTotal, s.directBudget})
            EXPECT_EQ(zero.joules(), 0.0);
        EXPECT_TRUE(s.rtc.synchronized);
        EXPECT_EQ(s.rtc.desyncs, 0u);
    }
    EXPECT_EQ(shard[0].pendingByAge, std::vector<int>(3, 0));
    EXPECT_EQ(shard[1].pendingByAge, std::vector<int>(2, 0));
    EXPECT_THROW(shard.add(plainState(cap, rtc)), FatalError);
    EXPECT_EQ(shard.rows(), 2u);
}

// A state validates both energy configs as it is built, so a rejected
// one never reaches the shard.
TEST(NodeShard, AddRowRejectsBadEnergyConfigs)
{
    NodeShard shard;
    shard.reserve(1);
    const SuperCapacitor::Config good_cap{};
    const Rtc::Config good_rtc{};

    SuperCapacitor::Config overfull = good_cap;
    overfull.initial = overfull.capacity + 1.0_mJ;
    EXPECT_THROW(shard.add(plainState(overfull, good_rtc)), FatalError);

    Rtc::Config no_interval = good_rtc;
    no_interval.interval = 0;
    EXPECT_THROW(shard.add(plainState(good_cap, no_interval)),
                 FatalError);

    Rtc::Config bad_rtc_cap = good_rtc;
    bad_rtc_cap.cap.capacity = Energy::zero();
    EXPECT_THROW(shard.add(plainState(good_cap, bad_rtc_cap)),
                 FatalError);

    EXPECT_EQ(shard.rows(), 0u);
    shard.add(plainState(good_cap, good_rtc));
    EXPECT_EQ(shard.rows(), 1u);
}

TEST(Node, PackageTxCostLowerForNvrf)
{
    auto fios = makeNode(OperatingMode::FiosNvMote, 2.0_mW);
    auto nvp = makeNode(OperatingMode::NosNvp, 2.0_mW);
    auto vp = makeNode(OperatingMode::NosVp, 2.0_mW);
    fios->beginSlot(0, kSlot);
    nvp->beginSlot(0, kSlot);
    vp->beginSlot(0, kSlot);
    EXPECT_LT(fios->packageTxCost().joules(),
              nvp->packageTxCost().joules());
    EXPECT_LT(nvp->packageTxCost().joules(),
              vp->packageTxCost().joules());
}

// A mode's parts come from its paper factories, and the spec prices
// the radio's init once: a node pays it with the slot's first
// transmission and not after.
TEST(Node, SpecPricesRadioInitOnce)
{
    for (const OperatingMode mode :
         {OperatingMode::NosVp, OperatingMode::NosNvp,
          OperatingMode::FiosNvMote}) {
        SCOPED_TRACE(operatingModeName(mode));
        auto node = makeNode(mode, 10.0_mW);
        const Node::Spec &spec = node->spec();
        EXPECT_EQ(spec.cpu.nonvolatile, mode != OperatingMode::NosVp);
        EXPECT_EQ(spec.cpu.spendthrift.has_value(),
                  mode != OperatingMode::NosVp);
        EXPECT_EQ(spec.rf.nonvolatile, mode == OperatingMode::FiosNvMote);
        EXPECT_EQ(spec.rfInit.duration, spec.rf.initCost().duration);
        EXPECT_EQ(spec.rfInit.energy, spec.rf.initCost().energy);

        node->beginSlot(0, kSlot);
        EXPECT_EQ(node->packageTxCost(),
                  spec.resultPackage.send.energy + spec.rfInit.energy);
        ASSERT_TRUE(node->tryWake());
        ASSERT_TRUE(node->payTransmit(spec.resultPackage.send));
        EXPECT_EQ(node->packageTxCost(), spec.resultPackage.send.energy);
    }
}

/** One phase price: its duration and its energy in joules. */
struct PinnedPrice
{
    Tick duration;
    double joules;
};

void
expectPrice(const char *what, Tick duration, Energy energy,
            const PinnedPrice &want)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(duration, want.duration);
    EXPECT_EQ(energy.joules(), want.joules);
}

// Every fixed price of a spec, pinned bit for bit to what the
// byte-count pay path and the per-call sample and wake arithmetic
// paid before the spec priced them: durations in ticks, energies as
// hex-floats.  A drift in a cost expression fails here first.
TEST(Node, SpecPricesArePinned)
{
    struct Case
    {
        const char *name;
        Node::Config cfg;
        PinnedPrice wake, sample, warmSample, txRaw, txResult, control4,
            control12, control16, listen4, listen12, listen16, listenRaw,
            listenResult;
    };
    Node::Config vp;
    vp.mode = OperatingMode::NosVp;
    Node::Config nvp;
    nvp.mode = OperatingMode::NosNvp;
    Node::Config fios;
    fios.mode = OperatingMode::FiosNvMote;
    Node::Config lupa;
    lupa.sensor = sensors::lupa1399();
    lupa.rawPackageBytes = 256;
    lupa.compressedPackageBytes = 32;
    // Control frames and listen windows of equal size cost the same on
    // every radio: both are priced from airtime.
    const PinnedPrice c4{1608, 0x1.2c76ffb168a7cp-13};
    const PinnedPrice c12{1864, 0x1.5c4ccf3f01986p-13};
    const PinnedPrice c16{1992, 0x1.7437b705ce10bp-13};
    const PinnedPrice l4{3608, 0x1.106516c9dfcc5p-12};
    const PinnedPrice l12{3864, 0x1.23b8e42f0b7dbp-12};
    const PinnedPrice l16{3992, 0x1.2d62cae1a1567p-12};
    const PinnedPrice l128{7576, 0x1.1dfc033502851p-11};
    const PinnedPrice tmp101{584112, 0x1.04c740efffefcp-14};
    const PinnedPrice tmp101_warm{18112, 0x1.76177678b41a1p-18};
    const PinnedPrice sw_tx128{465496, 0x1.53c4d572e8c9cp-5};
    const Case cases[] = {
        {"NOS-VP", vp, {1050, 0x1.41efb2ac9a653p-13}, tmp101, tmp101_warm,
         sw_tx128, sw_tx128, c4, c12, c16, l4, l12, l16, l128, l128},
        {"NOS-NVP", nvp, {782, 0x1.69b7c51047beap-19}, tmp101,
         tmp101_warm, sw_tx128, {300632, 0x1.b6ddeea568189p-6}, c4, c12,
         c16, l4, l12, l16, l128, l16},
        {"FIOS", fios, {757, 0x1.5e7f4bafdb2dbp-19}, tmp101, tmp101_warm,
         {37360, 0x1.b44f301c85fb3p-9}, {9584, 0x1.bfb52291436c9p-11},
         c4, c12, c16, l4, l12, l16, l128, l16},
        {"FIOS LUPA1399 256/32 B", lupa, {757, 0x1.5e7f4bafdb2dbp-19},
         {517000, 0x1.e32a9d92967dep-5}, {512000, 0x1.e258e67b3d9bcp-5},
         {69104, 0x1.93841c52f3a23p-8}, {13552, 0x1.3c88d36afa089p-10},
         c4, c12, c16, l4, l12, l16, {11672, 0x1.b89a6e5e60105p-11},
         {4504, 0x1.540a65abf8b94p-12}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        const Node::Spec spec(c.cfg);
        expectPrice("wake", spec.wakeTime, spec.wakeCost, c.wake);
        expectPrice("sample", spec.sampleTime, spec.sampleCost, c.sample);
        expectPrice("warm sample", spec.warmSampleTime,
                    spec.warmSampleCost, c.warmSample);
        expectPrice("raw tx", spec.rawPackage.send.duration,
                    spec.rawPackage.send.energy, c.txRaw);
        expectPrice("result tx", spec.resultPackage.send.duration,
                    spec.resultPackage.send.energy, c.txResult);
        expectPrice("beacon", spec.beacon.duration, spec.beacon.energy,
                    c.control4);
        expectPrice("dev-list control", spec.devListEntry.send.duration,
                    spec.devListEntry.send.energy, c.control4);
        expectPrice("orphan-scan control", spec.orphanScan.send.duration,
                    spec.orphanScan.send.energy, c.control12);
        expectPrice("scan-confirm control",
                    spec.scanConfirm.send.duration,
                    spec.scanConfirm.send.energy, c.control16);
        expectPrice("dev-list listen", spec.devListEntry.listen.duration,
                    spec.devListEntry.listen.energy, c.listen4);
        expectPrice("orphan-scan listen",
                    spec.orphanScan.listen.duration,
                    spec.orphanScan.listen.energy, c.listen12);
        expectPrice("scan-confirm listen",
                    spec.scanConfirm.listen.duration,
                    spec.scanConfirm.listen.energy, c.listen16);
        expectPrice("raw listen", spec.rawPackage.listen.duration,
                    spec.rawPackage.listen.energy, c.listenRaw);
        expectPrice("result listen", spec.resultPackage.listen.duration,
                    spec.resultPackage.listen.energy, c.listenResult);
        EXPECT_EQ(spec.bufferPackages,
                  static_cast<int>(c.cfg.buffer.capacityBytes /
                                   c.cfg.rawPackageBytes));
    }
}

// A transmission of several attempts (MAC retries) pays its
// one-attempt price once per attempt, in one phase.
TEST(Node, ByteCountPaymentsMatchSpecPrices)
{
    struct Last : NodeObserver
    {
        Tick duration = -1;
        Energy energy;
        void onPhase(std::uint32_t, Phase, Tick, Tick d, Energy e) override
        {
            duration = d;
            energy = e;
        }
    };
    for (const OperatingMode mode :
         {OperatingMode::NosVp, OperatingMode::NosNvp,
          OperatingMode::FiosNvMote}) {
        SCOPED_TRACE(operatingModeName(mode));
        auto node = makeNode(mode, 10.0_mW);
        const Node::Spec &spec = node->spec();
        Last last;
        node->setObserver(&last);
        node->beginSlot(0, 60 * kSec);
        ASSERT_TRUE(node->tryWake());
        ASSERT_TRUE(node->payTransmit(RfPhase{})); // the slot's radio init
        ASSERT_TRUE(node->payTransmit(spec.rawPackage.send, 2));
        const RfPhase twice = spec.rawPackage.send + spec.rawPackage.send;
        EXPECT_EQ(last.duration, twice.duration);
        EXPECT_EQ(last.energy, twice.energy);
    }
}

TEST(Node, SlotCostOrdering)
{
    // The per-package slot cost explains the paper's system ordering:
    // FIOS < NOS-NVP < NOS-VP.
    auto fios = makeNode(OperatingMode::FiosNvMote, 2.0_mW);
    auto nvp = makeNode(OperatingMode::NosNvp, 2.0_mW);
    auto vp = makeNode(OperatingMode::NosVp, 2.0_mW);
    fios->beginSlot(0, kSlot);
    nvp->beginSlot(0, kSlot);
    vp->beginSlot(0, kSlot);
    EXPECT_LT(fios->slotCost().joules(), nvp->slotCost().joules());
    EXPECT_LT(nvp->slotCost().joules(), vp->slotCost().joules());
}

} // namespace
} // namespace neofog
