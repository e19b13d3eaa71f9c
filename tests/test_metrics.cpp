/**
 * @file
 * Tests for the declare-once metric registry, the report_io
 * serialization layer, and the time-series probes.
 *
 * The contract under test (DESIGN.md "Observability"): every
 * SystemReport field is declared exactly once in its registry, and
 * merge, equality, printing, JSON/CSV serialization, and cross-seed
 * aggregation all derive from that list.  Probes must never perturb
 * results and must be bit-identical across thread counts (this file is
 * in the `parallel` ctest label for the TSan lane).
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fog/experiment.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/report_io.hh"
#include "sim/rng.hh"

namespace neofog {
namespace {

/**
 * A report with every stored field randomized, including doubles with
 * long mantissas (the worst case for text round-trips).
 */
SystemReport
randomReport(Rng &rng)
{
    SystemReport r;
    for (const auto &d : SystemReport::metrics().metrics()) {
        if (d.derived())
            continue;
        if (d.integral())
            d.setU64(r, rng.next() >> 8);
        else
            d.set(r, rng.uniform(0.0, 1e6) + rng.uniform());
    }
    return r;
}

TEST(MetricRegistry, EveryFieldIsDeclaredExactlyOnce)
{
    const auto &reg = SystemReport::metrics();
    // 21 counters + idealPackages come to 22 u64s; 7 double gauges.
    // If this fails after adding a SystemReport field, add its
    // MetricDef line in system_report.cc (and nothing else).
    // R6.metric in tools/neofog_lint catches the same omission by
    // name (&SystemReport::field must appear as a MetricDef); this
    // sizeof pin is the layout backstop it can't provide.
    EXPECT_EQ(reg.storedCount() * sizeof(std::uint64_t),
              sizeof(SystemReport));

    std::set<std::string> names;
    for (const auto &d : reg.metrics()) {
        EXPECT_TRUE(names.insert(d.name).second)
            << "duplicate metric " << d.name;
        EXPECT_NE(std::string(d.description), "");
    }
    EXPECT_NE(reg.find("total_processed"), nullptr);
    EXPECT_EQ(reg.find("no_such_metric"), nullptr);
}

TEST(MetricRegistry, MergeMatchesManualFieldWiseMerge)
{
    Rng rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        SystemReport a = randomReport(rng);
        const SystemReport b = randomReport(rng);

        // The pre-registry merge, spelled out by hand for the headline
        // fields; the registry must agree on every one of them.
        const SystemReport before = a;
        a.merge(b);

        EXPECT_EQ(a.wakeups, before.wakeups + b.wakeups);
        EXPECT_EQ(a.packagesToCloud,
                  before.packagesToCloud + b.packagesToCloud);
        EXPECT_EQ(a.packagesInFog,
                  before.packagesInFog + b.packagesInFog);
        EXPECT_EQ(a.tasksBalancedAway,
                  before.tasksBalancedAway + b.tasksBalancedAway);
        EXPECT_EQ(a.rtcResyncs, before.rtcResyncs + b.rtcResyncs);
        EXPECT_EQ(a.spentComputeMj,
                  before.spentComputeMj + b.spentComputeMj);
        EXPECT_EQ(a.harvestedMj, before.harvestedMj + b.harvestedMj);
        // Config-rule metric: scenario-derived, never summed.
        EXPECT_EQ(a.idealPackages, before.idealPackages);
    }
}

TEST(MetricRegistry, EqualityIsExactPerField)
{
    Rng rng(7);
    SystemReport a = randomReport(rng);
    SystemReport b = a;
    EXPECT_TRUE(a == b);
    b.wakeups += 1;
    EXPECT_FALSE(a == b);
    b = a;
    b.spentTxMj += 1e-9;
    EXPECT_FALSE(a == b);
}

TEST(ReportIo, JsonRoundTripIsLossless)
{
    Rng rng(2018);
    for (int trial = 0; trial < 20; ++trial) {
        const SystemReport r = randomReport(rng);
        std::ostringstream os;
        r.toJson(os);
        const auto doc = report_io::parseJson(os.str());
        const SystemReport back = SystemReport::fromJson(doc);
        EXPECT_TRUE(r == back) << "JSON round-trip diverged:\n"
                               << os.str();
    }
}

TEST(ReportIo, CsvRoundTripIsLossless)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        const SystemReport r = randomReport(rng);
        std::ostringstream os;
        r.toCsv(os);
        std::istringstream is(os.str());
        const SystemReport back = SystemReport::fromCsv(is);
        EXPECT_TRUE(r == back) << "CSV round-trip diverged:\n"
                               << os.str();
    }
}

TEST(ReportIo, FromJsonRejectsWrongSchemaAndMissingMetrics)
{
    EXPECT_THROW(SystemReport::fromJson(report_io::parseJson(
                     R"({"schema":"bogus-v1"})")),
                 FatalError);
    EXPECT_THROW(SystemReport::fromJson(report_io::parseJson(
                     R"({"schema":"neofog-report-v1","metrics":{}})")),
                 FatalError);
}

// Nesting is capped well above anything this project writes, so a
// hostile document fails as a parse error instead of recursing until
// the stack runs out.
TEST(ReportIo, ParseJsonCapsNestingDepth)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[') +
               std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_EQ(report_io::parseJson(nested(64)).items().size(), 1u);
    EXPECT_THROW(report_io::parseJson(nested(65)), FatalError);
    EXPECT_THROW(report_io::parseJson(std::string(200000, '[')),
                 FatalError);
    std::string objects;
    for (int i = 0; i < 200000; ++i)
        objects += "{\"k\":";
    EXPECT_THROW(report_io::parseJson(objects), FatalError);
}

TEST(ReportIo, BenchSchemaValidator)
{
    const auto good = report_io::parseJson(
        R"({"schema":"neofog-bench-v1","bench":"x",)"
        R"("results":{"a":1.5},"notes":{}})");
    EXPECT_EQ(report_io::validateBenchJson(good), "");

    const auto bad = report_io::parseJson(
        R"({"schema":"neofog-bench-v1","results":{"a":1.5}})");
    EXPECT_NE(report_io::validateBenchJson(bad), "");
}

// The series array neofog_cli embeds in its neofog-run-v1 document:
// one {"name","unit","points":[[t_s,v],...]} object per series, in
// order, with lossless values.
TEST(ReportIo, SeriesArrayKeepsOrderAndValues)
{
    const std::vector<report_io::LabeledSeries> series = {
        {"stored_energy_mj", "mJ", {{0, 1.0 / 3.0}, {12 * kSec, 0.1}}},
        {"yield_frac", "ratio", {}},
    };
    std::ostringstream os;
    report_io::JsonWriter w(os);
    w.beginObject();
    w.key("series");
    report_io::writeSeriesArray(w, series);
    w.endObject();

    const report_io::JsonValue doc = report_io::parseJson(os.str());
    const report_io::JsonValue *arr = doc.find("series");
    ASSERT_TRUE(arr != nullptr && arr->isArray());
    ASSERT_EQ(arr->items().size(), series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
        const report_io::JsonValue &got = arr->items()[i];
        EXPECT_EQ(got.find("name")->asString(), series[i].name);
        EXPECT_EQ(got.find("unit")->asString(), series[i].unit);
        const auto &points = got.find("points")->items();
        ASSERT_EQ(points.size(), series[i].points.size());
        for (std::size_t k = 0; k < points.size(); ++k) {
            EXPECT_EQ(points[k].items()[0].asNumber(),
                      secondsFromTicks(series[i].points[k].when));
            EXPECT_EQ(points[k].items()[1].asNumber(),
                      series[i].points[k].value);
        }
    }
}

TEST(RingSeries, WrapsKeepingNewestSamples)
{
    RingSeries ring(4);
    for (int i = 0; i < 10; ++i)
        ring.push(i * 100, static_cast<double>(i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    const auto pts = ring.snapshot();
    ASSERT_EQ(pts.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(pts[i].when, static_cast<Tick>((6 + i) * 100));
        EXPECT_EQ(pts[i].value, static_cast<double>(6 + i));
    }

    RingSeries disabled(0);
    disabled.push(0, 1.0);
    EXPECT_TRUE(disabled.empty());
    EXPECT_EQ(disabled.dropped(), 1u);
}

// A ring allocates for the samples it holds, not for its capacity:
// neofog_cli --probe-cap takes any count, and reserving the largest
// one up front aborted with std::length_error.
TEST(RingSeries, CapacityAllocatesNothingUpFront)
{
    RingSeries ring(std::numeric_limits<std::size_t>::max());
    for (int i = 0; i < 3; ++i)
        ring.push(i, static_cast<double>(i));
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.snapshot().back().value, 2.0);
}

/** Small multi-chain scenario for aggregation / probe tests. */
ScenarioConfig
probeScenario(unsigned threads)
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.chains = 3;
    cfg.horizon = 30 * kMin;
    cfg.threads = threads;
    cfg.seed = 11;
    return cfg;
}

/**
 * Attach a ChainProbeLog of @p capacity to every chain of @p sys;
 * @p logs holds them and must outlive the run.
 */
void
attachProbeLogs(FogSystem &sys, std::vector<ChainProbeLog> &logs,
                std::size_t capacity)
{
    logs.assign(sys.chains().size(), ChainProbeLog(capacity));
    for (std::size_t c = 0; c < logs.size(); ++c)
        sys.setProbeLog(c, &logs[c]);
}

/** Every log's series, in chain order (as neofog_cli prints them). */
std::vector<report_io::LabeledSeries>
seriesOf(const std::vector<ChainProbeLog> &logs)
{
    std::vector<report_io::LabeledSeries> out;
    for (std::size_t c = 0; c < logs.size(); ++c)
        for (auto &s : logs[c].series(c))
            out.push_back(std::move(s));
    return out;
}

TEST(Aggregation, MatchesManualScalarStatExactly)
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.horizon = 20 * kMin;
    const AggregateReport agg = ExperimentRunner::runSeeds(
        cfg, {.runs = 4, .baseSeed = 100});

    const auto &defs = SystemReport::metrics().metrics();
    ASSERT_EQ(agg.stats.size(), defs.size());
    for (std::size_t m = 0; m < defs.size(); ++m) {
        ScalarStat manual;
        for (const SystemReport &r : agg.reports)
            manual.sample(defs[m].get(r));
        EXPECT_EQ(agg.stats[m].count(), manual.count());
        EXPECT_EQ(agg.stats[m].mean(), manual.mean())
            << defs[m].name;
        EXPECT_EQ(agg.stats[m].stddev(), manual.stddev())
            << defs[m].name;
        EXPECT_EQ(agg.stats[m].min(), manual.min()) << defs[m].name;
        EXPECT_EQ(agg.stats[m].max(), manual.max()) << defs[m].name;
    }
    EXPECT_THROW(agg.stat("no_such_metric"), FatalError);
    EXPECT_EQ(&agg.stat("yield"), &agg.stats[
        static_cast<std::size_t>(
            SystemReport::metrics().find("yield") - defs.data())]);
}

TEST(Probes, DoNotPerturbSimulationResults)
{
    FogSystem with(probeScenario(1));
    std::vector<ChainProbeLog> logs;
    attachProbeLogs(with, logs, 64);
    const SystemReport a = with.run();
    const SystemReport b = FogSystem(probeScenario(1)).run();
    EXPECT_TRUE(a == b);
    for (const ChainProbeLog &log : logs)
        EXPECT_EQ(log.storedEnergyMj.pushed(),
                  static_cast<std::uint64_t>(with.config().slotCount()));
}

TEST(Probes, BitIdenticalAcrossThreadCounts)
{
    FogSystem serial(probeScenario(1));
    FogSystem threaded(probeScenario(4));
    std::vector<ChainProbeLog> serial_logs;
    std::vector<ChainProbeLog> threaded_logs;
    attachProbeLogs(serial, serial_logs, 64);
    attachProbeLogs(threaded, threaded_logs, 64);
    const SystemReport ra = serial.run();
    const SystemReport rb = threaded.run();
    EXPECT_TRUE(ra == rb);

    const auto sa = seriesOf(serial_logs);
    const auto sb = seriesOf(threaded_logs);
    ASSERT_EQ(sa.size(), sb.size());
    ASSERT_EQ(sa.size(), 3u * 4u); // 3 chains x 4 probe streams
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].name, sb[i].name);
        EXPECT_EQ(sa[i].unit, sb[i].unit);
        ASSERT_EQ(sa[i].points.size(), sb[i].points.size())
            << sa[i].name;
        EXPECT_FALSE(sa[i].points.empty()) << sa[i].name;
        for (std::size_t p = 0; p < sa[i].points.size(); ++p) {
            EXPECT_EQ(sa[i].points[p].when, sb[i].points[p].when);
            EXPECT_EQ(sa[i].points[p].value, sb[i].points[p].value)
                << sa[i].name << " point " << p;
        }
    }
}

// A ring keeps the newest samples: at capacity 8 every series holds
// the run's last 8 slots, one point per slot.
TEST(Probes, CapacityBoundsTheRings)
{
    const ScenarioConfig cfg = probeScenario(1);
    FogSystem sys(cfg);
    std::vector<ChainProbeLog> logs;
    attachProbeLogs(sys, logs, 8);
    sys.run();
    const auto series = seriesOf(logs);
    ASSERT_EQ(series.size(), 3u * 4u);
    EXPECT_EQ(series[4].name, "chain1.stored_mj");
    EXPECT_EQ(series[4].unit, "mJ");
    EXPECT_EQ(series[5].name, "chain1.yield");
    EXPECT_EQ(series[5].unit, "ratio");
    EXPECT_EQ(series[6].name, "chain1.balanced_tasks");
    EXPECT_EQ(series[7].name, "chain1.depletion_failures");
    const Tick last = (cfg.slotCount() - 1) * cfg.slotInterval;
    for (const auto &s : series) {
        ASSERT_EQ(s.points.size(), 8u) << s.name;
        for (std::size_t k = 0; k < 8; ++k)
            EXPECT_EQ(s.points[k].when,
                      last - static_cast<Tick>(7 - k) * cfg.slotInterval)
                << s.name << " point " << k;
    }
}

TEST(AggregateReport, SerializesBothWays)
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.horizon = 20 * kMin;
    const AggregateReport agg = ExperimentRunner::runSeeds(
        cfg, {.runs = 2, .baseSeed = 5});

    std::ostringstream js;
    agg.toJson(js);
    const auto doc = report_io::parseJson(js.str());
    EXPECT_EQ(doc.find("schema")->asString(), "neofog-aggregate-v1");

    std::ostringstream cs;
    agg.toCsv(cs);
    EXPECT_NE(cs.str().find("metric,count,mean,stddev,min,max"),
              std::string::npos);
    EXPECT_NE(cs.str().find("total_processed"), std::string::npos);
}

} // namespace
} // namespace neofog
