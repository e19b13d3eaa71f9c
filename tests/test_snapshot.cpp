/**
 * @file
 * Snapshot subsystem tests: archive round-trips, container
 * validation, corruption rejection, replay diffing, and the resume
 * bit-identity contract (`ctest -L snapshot`).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fog/chain_engine.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "fog/scenario.hh"
#include "fog/snapshot_io.hh"
#include "fog/system_report.hh"
#include "hw/sensor.hh"
#include "net/loss.hh"
#include "node/node_state.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "snapshot/archive.hh"
#include "snapshot/replay.hh"
#include "snapshot/snapshot.hh"

namespace neofog {
namespace {

namespace fs = std::filesystem;
using snapshot::DiffResult;
using snapshot::InArchive;
using snapshot::OutArchive;
using snapshot::Record;
using snapshot::RecordReader;
using snapshot::Snapshot;

/** Self-deleting scratch directory for file-format tests. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : _path(fs::temp_directory_path() /
                ("neofog_snapshot_test_" + tag))
    {
        fs::remove_all(_path);
        fs::create_directories(_path);
    }
    ~ScratchDir() { fs::remove_all(_path); }

    std::string file(const std::string &name) const
    {
        return (_path / name).string();
    }
    std::string path() const { return _path.string(); }

  private:
    fs::path _path;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// Archive encoding
// ---------------------------------------------------------------------

struct Inner
{
    std::int64_t ticks = 0;
    double level = 0.0;

    template <class Archive>
    void serialize(Archive &ar)
    {
        ar.io("ticks", ticks);
        ar.io("level", level);
    }
};

struct Outer
{
    bool flag = false;
    std::uint32_t count = 0;
    std::string label;
    std::vector<double> samples;
    Inner inner;

    template <class Archive>
    void serialize(Archive &ar)
    {
        ar.io("flag", flag);
        ar.io("count", count);
        ar.io("label", label);
        ar.io("samples", samples);
        ar.io("inner", inner);
    }
};

TEST(Archive, ScalarRoundTripIsExact)
{
    bool b = true;
    std::int32_t i32 = -123456;
    std::uint16_t u16 = 65535;
    std::uint32_t u32 = 0xDEADBEEFU;
    std::int64_t i64 = -(1LL << 60);
    std::uint64_t u64 = ~0ULL;
    double nan = std::nan("0x42");
    double negzero = -0.0;
    std::string str = "with\0byte and \n newline";

    OutArchive out;
    out.io("b", b);
    out.io("i32", i32);
    out.io("u16", u16);
    out.io("u32", u32);
    out.io("i64", i64);
    out.io("u64", u64);
    out.io("nan", nan);
    out.io("negzero", negzero);
    out.io("str", str);
    const std::string blob = out.take();

    bool b2 = false;
    std::int32_t i32_2 = 0;
    std::uint16_t u16_2 = 0;
    std::uint32_t u32_2 = 0;
    std::int64_t i64_2 = 0;
    std::uint64_t u64_2 = 0;
    double nan2 = 0, negzero2 = 0;
    std::string str2;

    InArchive in{std::string_view(blob)};
    in.io("b", b2);
    in.io("i32", i32_2);
    in.io("u16", u16_2);
    in.io("u32", u32_2);
    in.io("i64", i64_2);
    in.io("u64", u64_2);
    in.io("nan", nan2);
    in.io("negzero", negzero2);
    in.io("str", str2);
    EXPECT_TRUE(in.atEnd());

    EXPECT_EQ(b2, b);
    EXPECT_EQ(i32_2, i32);
    EXPECT_EQ(u16_2, u16);
    EXPECT_EQ(u32_2, u32);
    EXPECT_EQ(i64_2, i64);
    EXPECT_EQ(u64_2, u64);
    EXPECT_EQ(str2, str);
    // Doubles travel as bit patterns: NaN payload and the sign of
    // zero survive (resume bit-identity depends on this).
    EXPECT_EQ(snapshot::doubleBits(nan2), snapshot::doubleBits(nan));
    EXPECT_TRUE(std::signbit(negzero2));
}

TEST(Archive, NestedComponentRoundTrip)
{
    Outer a;
    a.flag = true;
    a.count = 9;
    a.label = "chain0";
    a.samples = {1.5, -2.25, 0.0};
    a.inner = {42, 0.125};

    OutArchive out;
    out.io("outer", a);
    const std::string blob = out.take();

    Outer b;
    InArchive in{std::string_view(blob)};
    in.io("outer", b);
    EXPECT_TRUE(in.atEnd());

    EXPECT_EQ(b.flag, a.flag);
    EXPECT_EQ(b.count, a.count);
    EXPECT_EQ(b.label, a.label);
    EXPECT_EQ(b.samples, a.samples);
    EXPECT_EQ(b.inner.ticks, a.inner.ticks);
    EXPECT_EQ(b.inner.level, a.inner.level);
}

TEST(Archive, RecordPathsAreFullyQualified)
{
    Outer a;
    OutArchive out;
    out.io("outer", a);
    const std::string blob = out.take();

    std::vector<std::string> paths;
    RecordReader reader{std::string_view(blob)};
    Record rec;
    while (reader.next(rec))
        paths.emplace_back(rec.path);
    const std::vector<std::string> expect = {
        "outer.flag", "outer.count", "outer.label", "outer.samples",
        "outer.inner.ticks", "outer.inner.level"};
    EXPECT_EQ(paths, expect);
}

TEST(Archive, LoadRejectsPathAndTypeMismatch)
{
    OutArchive out;
    std::int32_t v = 7;
    out.io("alpha", v);
    const std::string blob = out.take();

    {
        // Wrong field name.
        InArchive in{std::string_view(blob)};
        std::int32_t got = 0;
        EXPECT_THROW(in.io("beta", got), FatalError);
    }
    {
        // Right name, wrong wire type.
        InArchive in{std::string_view(blob)};
        double got = 0;
        EXPECT_THROW(in.io("alpha", got), FatalError);
    }
    {
        // Reading past the end of the stream.
        InArchive in{std::string_view(blob)};
        std::int32_t got = 0;
        in.io("alpha", got);
        EXPECT_THROW(in.io("alpha", got), FatalError);
    }
    {
        // Truncated record payload.
        const std::string cut = blob.substr(0, blob.size() - 2);
        InArchive in{std::string_view(cut)};
        std::int32_t got = 0;
        EXPECT_THROW(in.io("alpha", got), FatalError);
    }
    {
        // Same leaf, different scope: the whole dotted path must
        // match, and the message names both sides of the mismatch.
        OutArchive scoped;
        scoped.pushScope("chain0");
        scoped.pushScope("node1");
        scoped.io("alpha", v);
        const std::string bytes = scoped.take();
        InArchive in{std::string_view(bytes)};
        in.pushScope("chain0");
        in.pushScope("node2");
        std::int32_t got = 0;
        try {
            in.io("alpha", got);
            FAIL() << "expected a path mismatch";
        } catch (const FatalError &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find("'chain0.node1.alpha'"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("'chain0.node2.alpha'"),
                      std::string::npos)
                << what;
        }
    }
}

// The words snapshot diagnostics use to name a record and render its
// value, which replay output and resume errors show users.
TEST(Archive, DiagnosticTextIsPinned)
{
    std::string label = "rain";
    std::vector<double> samples = {1.0, 2.0, 3.0};
    OutArchive out;
    out.io("label", label);
    out.io("samples", samples);
    const std::string blob = out.take();

    RecordReader reader(blob);
    Record rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(snapshot::formatPayload(rec.type, rec.payload),
              "\"rain\"");
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(snapshot::formatPayload(rec.type, rec.payload),
              "[3 elements]");

    InArchive in{std::string_view(blob)};
    std::string got;
    try {
        in.io("title", got);
        FAIL() << "expected a path mismatch";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(),
                     "snapshot field mismatch: stream has 'label' where "
                     "the loader expects 'title' (format/version skew?)");
    }

    // The record reader quotes the path of a record it cannot decode.
    std::string bad = blob;
    bad[2 + 5] = 99; // after the u16 length and the 5 bytes of "label"
    RecordReader broken(bad);
    try {
        broken.next(rec);
        FAIL() << "expected an invalid type tag";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(),
                     "snapshot record 'label' has invalid type tag 99");
    }
}

TEST(Archive, BatchChecksumMatchesFnv1a)
{
    // Published FNV-1a 64 test vectors.
    EXPECT_EQ(snapshot::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(snapshot::fnv1a("a"), 0xaf63dc4c8601ec8cULL);

    // Uneven lengths, empty and 1-byte parts included, so the
    // four-lane body, its per-part remainders, and the trailing
    // parts past the last group of four all run.
    const std::size_t lengths[] = {0, 1, 37, 4096, 3, 1000, 1, 255, 0};
    std::mt19937 gen(2024);
    std::vector<std::string> parts;
    for (const std::size_t n : lengths) {
        std::string bytes(n, '\0');
        for (char &c : bytes)
            c = static_cast<char>(gen() & 0xFF);
        parts.push_back(std::move(bytes));
    }
    for (std::size_t count = 0; count <= parts.size(); ++count) {
        const std::vector<std::string_view> views(
            parts.begin(),
            parts.begin() + static_cast<std::ptrdiff_t>(count));
        const std::vector<std::uint64_t> hashes =
            snapshot::fnv1aEach(views);
        ASSERT_EQ(hashes.size(), count);
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hashes[i], snapshot::fnv1a(views[i]))
                << "count " << count << ", part " << i;
    }
}

/** Every wire type once, with the edge values resume depends on. */
struct AllTypes
{
    bool flag = true;
    std::int32_t i32 = -123456;
    std::uint16_t u16 = 65535;
    std::uint32_t u32 = 0xDEADBEEFU;
    std::int64_t i64 = -(1LL << 60);
    std::uint64_t u64 = ~0ULL;
    double nan = snapshot::doubleFromBits(0x7FF8000000000042ULL);
    double negzero = -0.0;
    std::string label = "chain0";
    std::string empty;
    std::vector<bool> bits = {true, false, true};
    std::vector<std::int32_t> i32s = {-1, 2};
    std::vector<std::uint32_t> u32s;
    std::vector<std::uint64_t> u64s = {0, ~0ULL};
    std::vector<double> f64s = {1.5, -0.0};
    std::vector<TimeSeries::Point> points = {{10, 0.25}, {-3, -2.5}};
    Inner inner = {42, 0.125};

    template <class Archive>
    void serialize(Archive &ar)
    {
        ar.io("flag", flag);
        ar.io("i32", i32);
        ar.io("u16", u16);
        ar.io("u32", u32);
        ar.io("i64", i64);
        ar.io("u64", u64);
        ar.io("nan", nan);
        ar.io("negzero", negzero);
        ar.io("label", label);
        ar.io("empty", empty);
        ar.io("bits", bits);
        ar.io("i32s", i32s);
        ar.io("u32s", u32s);
        ar.io("u64s", u64s);
        ar.io("f64s", f64s);
        ar.io("points", points);
        ar.io("inner", inner);
    }
};

TEST(Archive, EncoderBytesArePinned)
{
    // neofog-snapshot-v1 record bytes are a compatibility contract:
    // files written by any earlier build must still load.  Changing
    // these constants needs a new schema tag and a migration test.
    AllTypes all;
    OutArchive out;
    out.pushScope("chain0");
    out.io("node1", all);
    out.popScope();
    const std::string blob = out.take();
    EXPECT_EQ(blob.size(), 573u);
    EXPECT_EQ(snapshot::fnv1a(blob), 0x5e8a87e08dd28056ULL);
    // The first record, spelled out: u16 path length, path, type tag,
    // payload.
    EXPECT_EQ(blob.substr(0, 21),
              std::string("\x11\x00"
                          "chain0.node1.flag\x01\x01",
                          21));

    AllTypes back;
    back.flag = false;
    back.label.clear();
    back.bits.clear();
    back.points.clear();
    InArchive in{std::string_view(blob)};
    in.pushScope("chain0");
    in.io("node1", back);
    in.popScope();
    EXPECT_TRUE(in.atEnd());
    OutArchive again;
    again.pushScope("chain0");
    again.io("node1", back);
    EXPECT_EQ(again.take(), blob);
}

TEST(Archive, RngStreamPositionRoundTrips)
{
    Rng rng(1234);
    for (int i = 0; i < 17; ++i)
        rng.normal(); // leaves a Box-Muller spare half the time

    OutArchive out;
    out.io("rng", rng);
    const std::string blob = out.take();

    Rng restored(999); // deliberately different seed
    InArchive in{std::string_view(blob)};
    in.io("rng", restored);

    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(restored.next(), rng.next());
        EXPECT_EQ(restored.normal(), rng.normal());
    }
}

// ---------------------------------------------------------------------
// Serialized-footprint pins (the sizeof(SystemReport) trick): adding
// a data member to a snapshotted struct without extending serialize()
// would silently corrupt resumes.  The first line of defense is now
// R5.snapshot in tools/neofog_lint, which names the forgotten member
// by field and line; these pins stay as the layout backstop for what
// a token-level pass can't see (padding, type-size changes, members
// smuggled in through a base class).  If one trips, update the
// struct's serialize() AND the pin.
// ---------------------------------------------------------------------

TEST(SnapshotFootprint, PinsEverySnapshottedStruct)
{
    EXPECT_EQ(sizeof(Rng), 48u);
    EXPECT_EQ(sizeof(Counter), 8u);
    EXPECT_EQ(sizeof(NvBuffer::State), 24u);
    EXPECT_EQ(sizeof(SensorSpec), 72u);
    EXPECT_EQ(sizeof(RfState), 48u);
    EXPECT_EQ(sizeof(LossModel::State), 16u);
    EXPECT_EQ(sizeof(NodeStats), 144u);
    EXPECT_EQ(sizeof(SuperCapacitor::State), 40u);
    EXPECT_EQ(sizeof(Rtc::State), 56u);
    EXPECT_EQ(sizeof(NodeState), 368u);
    EXPECT_EQ(sizeof(ChainState), 352u);
    EXPECT_EQ(sizeof(SystemReport), 216u);
    EXPECT_EQ(sizeof(Node::Config), 272u);
    EXPECT_EQ(sizeof(ScenarioConfig), 472u);
}

// ---------------------------------------------------------------------
// Chain section schema: the ordered (path, wire type) list a chain
// section carries.  The literals below were generated by walking
// chain0 of the same two scenarios on the tree before NodeState and
// ChainState existed, so any reorder, rename or retype of a record
// fails here.  They hold no floating point, so every compiler agrees.
// ---------------------------------------------------------------------

/** Chain-level records, relative to "chain<c>.". */
constexpr std::string_view kChainRecords = R"(
rng.s0 u64
rng.s1 u64
rng.s2 u64
rng.s3 u64
rng.have_spare_normal bool
rng.spare_normal f64
loss.attempts u64
loss.losses u64
alive_last_slot vec<bool>
group0.rotation i32
shard.ideal_packages u64
shard.wakeups u64
shard.depletion_failures u64
shard.packages_sampled u64
shard.packages_to_cloud u64
shard.packages_in_fog u64
shard.packages_incidental u64
shard.tasks_balanced_away u64
shard.lb_messages u64
shard.lb_failed_regions u64
shard.tx_lost u64
shard.tx_aborted u64
shard.orphan_scans u64
shard.rejoins u64
shard.membership_updates u64
shard.rt_requests_served u64
shard.rt_requests_missed u64
shard.relay_hops u64
shard.relay_drops u64
shard.rtc_resyncs u64
shard.cap_overflow_mj f64
shard.spent_compute_mj f64
shard.spent_tx_mj f64
shard.spent_rx_mj f64
shard.spent_sample_mj f64
shard.spent_wake_mj f64
shard.harvested_mj f64
probe.stored_energy_mj.buf vec<point>
probe.stored_energy_mj.capacity u64
probe.stored_energy_mj.head u64
probe.stored_energy_mj.pushed u64
probe.yield_frac.buf vec<point>
probe.yield_frac.capacity u64
probe.yield_frac.head u64
probe.yield_frac.pushed u64
probe.balanced_tasks.buf vec<point>
probe.balanced_tasks.capacity u64
probe.balanced_tasks.head u64
probe.balanced_tasks.pushed u64
probe.depletion_failures.buf vec<point>
probe.depletion_failures.capacity u64
probe.depletion_failures.head u64
probe.depletion_failures.pushed u64)";

/** One FIOS node's records (NVRF radio), relative to "chain<c>.node<i>.". */
constexpr std::string_view kFiosNodeRecords = R"(
rng.s0 u64
rng.s1 u64
rng.s2 u64
rng.s3 u64
rng.have_spare_normal bool
rng.spare_normal f64
cap.stored f64
cap.overflow_total f64
cap.leaked_total f64
cap.charged_total f64
cap.discharged_total f64
rtc.cap.stored f64
rtc.cap.overflow_total f64
rtc.cap.leaked_total f64
rtc.cap.charged_total f64
rtc.cap.discharged_total f64
rtc.synchronized bool
rtc.desyncs u64
sensor.initialized bool
buffer.size u64
buffer.accepted u64
buffer.dropped u64
rf_state.channel i32
rf_state.pan_id u32
rf_state.route_version u64
rf_state.associated_dev_list vec<u32>
rf_state.slot_phase i32
rf_state.wake_interval_multiplier i32
nvrf.configured bool
last_accrual i64
slot_start i64
slot_length i64
slot_time_used i64
direct_budget f64
last_income f64
awake bool
rf_initialized_this_slot bool
slot_costs_valid bool
slot_task_cost f64
slot_task_time i64
pending_packages i32
pending_by_age vec<i32>
stats.wakeups.value u64
stats.depletion_failures.value u64
stats.packages_sampled.value u64
stats.packages_to_cloud.value u64
stats.packages_in_fog.value u64
stats.tasks_executed.value u64
stats.incidental_tasks.value u64
stats.tasks_received.value u64
stats.tasks_shipped.value u64
stats.tx_failures.value u64
stats.samples_discarded.value u64
stats.rtc_resyncs.value u64
stats.stored_energy_mj.points vec<point>
stats.harvested_total f64
stats.spent_compute f64
stats.spent_tx f64
stats.spent_rx f64
stats.spent_sample f64
stats.spent_wake f64)";

/** One NOS-VP node's records (software radio: no nvrf). */
constexpr std::string_view kVpNodeRecords = R"(
rng.s0 u64
rng.s1 u64
rng.s2 u64
rng.s3 u64
rng.have_spare_normal bool
rng.spare_normal f64
cap.stored f64
cap.overflow_total f64
cap.leaked_total f64
cap.charged_total f64
cap.discharged_total f64
rtc.cap.stored f64
rtc.cap.overflow_total f64
rtc.cap.leaked_total f64
rtc.cap.charged_total f64
rtc.cap.discharged_total f64
rtc.synchronized bool
rtc.desyncs u64
sensor.initialized bool
buffer.size u64
buffer.accepted u64
buffer.dropped u64
rf_state.channel i32
rf_state.pan_id u32
rf_state.route_version u64
rf_state.associated_dev_list vec<u32>
rf_state.slot_phase i32
rf_state.wake_interval_multiplier i32
last_accrual i64
slot_start i64
slot_length i64
slot_time_used i64
direct_budget f64
last_income f64
awake bool
rf_initialized_this_slot bool
slot_costs_valid bool
slot_task_cost f64
slot_task_time i64
pending_packages i32
pending_by_age vec<i32>
stats.wakeups.value u64
stats.depletion_failures.value u64
stats.packages_sampled.value u64
stats.packages_to_cloud.value u64
stats.packages_in_fog.value u64
stats.tasks_executed.value u64
stats.incidental_tasks.value u64
stats.tasks_received.value u64
stats.tasks_shipped.value u64
stats.tx_failures.value u64
stats.samples_discarded.value u64
stats.rtc_resyncs.value u64
stats.stored_energy_mj.points vec<point>
stats.harvested_total f64
stats.spent_compute f64
stats.spent_tx f64
stats.spent_rx f64
stats.spent_sample f64
stats.spent_wake f64)";

/** "path type" lines of @p block, each path prefixed by @p prefix. */
std::vector<std::pair<std::string, std::string>>
schemaLines(std::string_view block, const std::string &prefix)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::istringstream is{std::string(block)};
    std::string path;
    std::string type;
    while (is >> path >> type)
        out.emplace_back(prefix + path, type);
    return out;
}

/**
 * Run @p cfg for four slots with a checkpoint at slot 2, and return
 * chain0's section of that checkpoint as (path, wire type) records.
 */
std::vector<std::pair<std::string, std::string>>
chainSectionSchema(ScenarioConfig cfg, const std::string &tag)
{
    const ScratchDir dir(tag);
    cfg.chains = 1;
    cfg.horizon = 4 * cfg.slotInterval;
    cfg.snapshot.everySlots = 2;
    cfg.snapshot.dir = dir.path();
    FogSystem(cfg).run();
    const Snapshot snap =
        snapshot::readSnapshot(dir.file(snapshot::snapshotFileName(2)));
    const snapshot::Section *sec = snap.find("chain0");
    EXPECT_NE(sec, nullptr);
    std::vector<std::pair<std::string, std::string>> out;
    if (sec == nullptr)
        return out;
    RecordReader reader(sec->data);
    Record rec;
    while (reader.next(rec))
        out.emplace_back(std::string(rec.path),
                         snapshot::fieldTypeName(rec.type));
    return out;
}

TEST(SnapshotSchema, ChainSectionRecordsArePinned)
{
    ScenarioConfig fios;
    fios.nodesPerChain = 1;
    fios.multiplexing = 2;
    fios.mode = OperatingMode::FiosNvMote;
    fios.traceKind = TraceKind::Constant;
    fios.nodeTemplate = presets::systemNodeTemplate();
    auto want = schemaLines(kChainRecords, "chain0.");
    for (const char *node : {"chain0.node0.", "chain0.node1."})
        for (auto &line : schemaLines(kFiosNodeRecords, node))
            want.push_back(std::move(line));
    EXPECT_EQ(chainSectionSchema(fios, "schema_fios"), want);

    ScenarioConfig vp = fios;
    vp.multiplexing = 1;
    vp.mode = OperatingMode::NosVp;
    want = schemaLines(kChainRecords, "chain0.");
    for (auto &line : schemaLines(kVpNodeRecords, "chain0.node0."))
        want.push_back(std::move(line));
    EXPECT_EQ(chainSectionSchema(vp, "schema_vp"), want);
}

// ---------------------------------------------------------------------
// Config section schema: the ordered (path, wire type) records of the
// scenario blob every snapshot carries and hashes into its config
// fingerprint.  The literals were generated by the tree that still
// had the energy-cache knobs; the records must not move, so snapshots
// written by that tree keep decoding (or are refused by name).
// ---------------------------------------------------------------------

constexpr std::string_view kConfigRecords = R"(
nodes_per_chain u64
chains u64
multiplexing i32
horizon i64
slot_interval i64
trace_kind i32
profile_index i32
mean_income f64
mode i32
balancer_policy str
loss.success_rate f64
loss.weather_factor f64
loss.max_retries i32
node_template.id u32
node_template.mode i32
node_template.cap.capacity f64
node_template.cap.initial f64
node_template.cap.leakage f64
node_template.rtc.interval i64
node_template.rtc.draw f64
node_template.rtc.cap.capacity f64
node_template.rtc.cap.initial f64
node_template.rtc.cap.leakage f64
node_template.rtc.charge_priority f64
node_template.rtc.resync_listen i64
node_template.rtc.resync_energy f64
node_template.sensor.part_name str
node_template.sensor.init_latency i64
node_template.sensor.init_power f64
node_template.sensor.sample_latency i64
node_template.sensor.sample_power f64
node_template.sensor.bytes_per_sample u64
node_template.processor_mhz f64
node_template.raw_package_bytes u64
node_template.compressed_package_bytes u64
node_template.samples_per_package u64
node_template.fog_instructions_per_package u64
node_template.naive_instructions_per_package u64
node_template.package_deadline_slots i32
node_template.enable_incidental_computing bool
node_template.incidental_fraction f64
node_template.enable_frequency_scaling bool
node_template.buffer.capacity_bytes u64
node_template.buffer.interrupt_threshold f64
node_template.buffer.write_energy_per_byte f64
node_template.buffer.read_energy_per_byte f64
membership_update_interval i64
real_time_request_chance f64
hop_by_hop_relay bool
probes.enabled bool
probes.capacity u64
probes.every_slots i64
energy_cache.enabled bool
energy_cache.grid i64
seed u64)";

/** (path, wire type) records of @p cfg's config-section blob. */
std::vector<std::pair<std::string, std::string>>
configSectionSchema(const ScenarioConfig &cfg)
{
    const std::string blob = serializeScenarioBlob(cfg);
    std::vector<std::pair<std::string, std::string>> out;
    RecordReader reader(blob);
    Record rec;
    while (reader.next(rec))
        out.emplace_back(std::string(rec.path),
                         snapshot::fieldTypeName(rec.type));
    return out;
}

TEST(SnapshotSchema, ConfigSectionRecordsArePinned)
{
    const auto want = schemaLines(kConfigRecords, "");
    const ScenarioConfig rain = presets::fig13(presets::fiosNeofog(), 3);
    EXPECT_EQ(configSectionSchema(rain), want);
    EXPECT_EQ(scenarioFingerprint(rain), 0xb23a204eb0aa55f9ULL);

    const ScenarioConfig forest = presets::fig10(presets::fiosNeofog(), 0);
    EXPECT_EQ(configSectionSchema(forest), want);
    EXPECT_EQ(scenarioFingerprint(forest), 0x7d911f853a2c9f1dULL);
}

// ---------------------------------------------------------------------
// NodeState load validation: a snapshot's node records land in
// NodeState::serialize, which refuses states no run can produce and
// names the offending record.
// ---------------------------------------------------------------------

/** A fresh node state with a @p depth-slot pending queue. */
NodeState
freshNodeState(std::size_t depth = 2)
{
    return NodeState(SuperCapacitor::initialState({}),
                     Rtc::initialState({}), depth, /*nvrf=*/false);
}

/** @p state archived as node1 of chain0. */
std::string
nodeBlob(NodeState &state)
{
    OutArchive out;
    out.io("chain0.node1", state);
    return out.take();
}

/** The FatalError loading @p blob into @p into raises ("" if none). */
std::string
nodeLoadError(const std::string &blob, NodeState &into)
{
    try {
        InArchive in{std::string_view(blob)};
        in.io("chain0.node1", into);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(NodeStateLoad, RejectsNegativeAgeCount)
{
    NodeState bad = freshNodeState();
    bad.pendingByAge = {2, -1};
    bad.pendingPackages = 1; // the sum matches; only the sign is wrong
    NodeState into = freshNodeState();
    const std::string err = nodeLoadError(nodeBlob(bad), into);
    EXPECT_NE(err.find("chain0.node1.pending_by_age"), std::string::npos)
        << err;
    EXPECT_NE(err.find("-1"), std::string::npos) << err;
}

TEST(NodeStateLoad, RejectsAgesNotSummingToPending)
{
    NodeState good = freshNodeState();
    good.pendingByAge = {2, 1};
    good.pendingPackages = 3;
    NodeState into = freshNodeState();
    EXPECT_EQ(nodeLoadError(nodeBlob(good), into), "");
    EXPECT_EQ(into.pendingByAge, good.pendingByAge);

    NodeState bad = freshNodeState();
    bad.pendingByAge = {2, 1};
    bad.pendingPackages = 4;
    const std::string err = nodeLoadError(nodeBlob(bad), into);
    EXPECT_NE(err.find("chain0.node1.pending_by_age"), std::string::npos)
        << err;
    EXPECT_NE(err.find("pending_packages is 4"), std::string::npos)
        << err;
}

TEST(NodeStateLoad, RejectsQueueDepthMismatch)
{
    // A node with a 3-slot freshness deadline cannot load the queue of
    // a 2-slot one, and the other way round.
    for (const auto &[from_depth, into_depth] :
         {std::pair{2u, 3u}, std::pair{3u, 2u}}) {
        NodeState from = freshNodeState(from_depth);
        NodeState into = freshNodeState(into_depth);
        const std::string err = nodeLoadError(nodeBlob(from), into);
        EXPECT_NE(err.find("chain0.node1.pending_by_age"),
                  std::string::npos)
            << err;
    }
}

// ---------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------

Snapshot
sampleSnapshot()
{
    Snapshot snap;
    snap.slot = 42;
    snap.seed = 7;
    snap.chains = 2;
    snap.sections.push_back({"config", "fingerprint-bytes"});
    snap.sections.push_back({"chain0", "alpha"});
    snap.sections.push_back({"chain1", "beta"});
    return snap;
}

TEST(SnapshotFile, WriteReadRoundTrip)
{
    const ScratchDir dir("roundtrip");
    const std::string path =
        dir.file(snapshot::snapshotFileName(42));
    EXPECT_EQ(path.substr(path.size() - 22), "snap-0000000042.nfsnap");

    snapshot::writeSnapshot(path, sampleSnapshot());
    // The container bytes (header JSON, section table, payloads) are
    // pinned like the record bytes in Archive.EncoderBytesArePinned.
    const std::string file = slurp(path);
    EXPECT_EQ(file.size(), 344u);
    EXPECT_EQ(snapshot::fnv1a(file), 0x8f52f88ce26fceaaULL);
    const Snapshot back = snapshot::readSnapshot(path);

    EXPECT_EQ(back.slot, 42);
    EXPECT_EQ(back.seed, 7u);
    EXPECT_EQ(back.chains, 2u);
    ASSERT_EQ(back.sections.size(), 3u);
    EXPECT_EQ(back.sections[1].name, "chain0");
    EXPECT_EQ(back.sections[1].data, "alpha");
    ASSERT_NE(back.find("config"), nullptr);
    EXPECT_EQ(back.configHash,
              snapshot::fnv1a(back.find("config")->data));
    EXPECT_EQ(back.find("nope"), nullptr);
    // No .tmp residue after the atomic publish.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SnapshotFile, LatestSkipsCorruptAndResolvesDirectories)
{
    const ScratchDir dir("latest");
    const std::string oldest =
        dir.file(snapshot::snapshotFileName(10));
    const std::string middle =
        dir.file(snapshot::snapshotFileName(20));
    const std::string newest =
        dir.file(snapshot::snapshotFileName(30));
    const std::pair<int, std::string> files[] = {
        {10, oldest}, {20, middle}, {30, newest}};
    Snapshot snap = sampleSnapshot();
    for (const auto &[slot, path] : files) {
        snap.slot = slot;
        snap.sections[1].data = "alpha" + std::to_string(slot);
        snapshot::writeSnapshot(path, snap);
    }
    const std::string pristine_middle = slurp(middle);
    const auto corrupt = [](const std::string &path) {
        std::string bytes = slurp(path);
        bytes[bytes.size() - 1] ^= 0x01;
        spit(path, bytes);
    };

    // The read-latest entry hands back exactly what readSnapshot of
    // the chosen file yields.
    const auto expectLatest = [&](const std::string &want) {
        EXPECT_EQ(snapshot::latestSnapshot(dir.path()), want);
        const auto latest = snapshot::readLatestSnapshot(dir.path());
        ASSERT_TRUE(latest.has_value());
        EXPECT_EQ(latest->path, want);
        const Snapshot direct = snapshot::readSnapshot(want);
        EXPECT_EQ(latest->snap.slot, direct.slot);
        EXPECT_EQ(latest->snap.configHash, direct.configHash);
        ASSERT_EQ(latest->snap.sections.size(), direct.sections.size());
        for (std::size_t i = 0; i < direct.sections.size(); ++i) {
            EXPECT_EQ(latest->snap.sections[i].name,
                      direct.sections[i].name);
            EXPECT_EQ(latest->snap.sections[i].data,
                      direct.sections[i].data);
        }
        EXPECT_EQ(snapshot::loadSnapshot(dir.path()).path, want);
    };

    expectLatest(newest);
    // A file path is read as named, never redirected.
    EXPECT_EQ(snapshot::loadSnapshot(oldest).path, oldest);
    EXPECT_EQ(snapshot::loadSnapshot(oldest).snap.slot, 10);

    // A corrupt middle file does not hide the valid newest one.
    corrupt(middle);
    expectLatest(newest);

    // Corrupt the newest: resume-from-latest must fall back to the
    // newest VALID checkpoint, exactly the crash-mid-write case.
    spit(middle, pristine_middle);
    corrupt(newest);
    expectLatest(middle);

    // Both newer files torn: back to the oldest.
    corrupt(middle);
    expectLatest(oldest);

    const ScratchDir empty("empty");
    EXPECT_EQ(snapshot::latestSnapshot(empty.path()), "");
    EXPECT_FALSE(snapshot::readLatestSnapshot(empty.path()).has_value());
    EXPECT_THROW(snapshot::loadSnapshot(empty.path()), FatalError);
}

// The header JSON is parsed before any checksum, so a hostile header
// must fail like any other corrupt file, not overflow the stack; as the
// newest file of a directory it is skipped like a torn one.
TEST(SnapshotFile, DeeplyNestedHeaderIsRejected)
{
    const ScratchDir dir("deep_header");
    const std::string older = dir.file(snapshot::snapshotFileName(10));
    Snapshot snap = sampleSnapshot();
    snap.slot = 10;
    snapshot::writeSnapshot(older, snap);

    const std::string nested(200000, '[');
    std::string crafted(snapshot::kMagic, 8);
    snapshot::appendLe32(crafted, snapshot::kEndianMarker);
    snapshot::appendLe32(crafted,
                         static_cast<std::uint32_t>(nested.size()));
    crafted += nested;
    const std::string newest = dir.file(snapshot::snapshotFileName(20));
    spit(newest, crafted);

    try {
        snapshot::readSnapshot(newest);
        ADD_FAILURE() << "a 200000-deep header was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("corrupt header"),
                  std::string::npos)
            << err.what();
    }
    const auto latest = snapshot::readLatestSnapshot(dir.path());
    ASSERT_TRUE(latest.has_value());
    EXPECT_EQ(latest->path, older);
    EXPECT_EQ(latest->snap.slot, 10);
}

TEST(SnapshotFile, CorruptionIsRejectedLoudly)
{
    const ScratchDir dir("corrupt");
    const std::string good = dir.file("good.nfsnap");
    snapshot::writeSnapshot(good, sampleSnapshot());
    const std::string pristine = slurp(good);

    const auto rejects = [&](const std::string &bytes,
                             const std::string &needle) {
        const std::string path = dir.file("mutant.nfsnap");
        spit(path, bytes);
        try {
            snapshot::readSnapshot(path);
            FAIL() << "expected rejection containing '" << needle
                   << "'";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(needle),
                      std::string::npos)
                << err.what();
        }
    };

    // Truncations: below the fixed preamble, inside the header, and
    // inside a section body.
    rejects(pristine.substr(0, 10), "truncated");
    rejects(pristine.substr(0, 20), "truncated");
    rejects(pristine.substr(0, pristine.size() - 3),
            "outside the file");

    // Flipped magic byte.
    std::string bad = pristine;
    bad[3] ^= 0xFF;
    rejects(bad, "bad magic");

    // Byte-swapped endianness marker: a big-endian writer's output.
    bad = pristine;
    std::swap(bad[8], bad[11]);
    std::swap(bad[9], bad[10]);
    rejects(bad, "big-endian");

    // Garbage endianness marker.
    bad = pristine;
    bad[8] ^= 0x55;
    rejects(bad, "endianness marker");

    // Flipped byte inside a section payload: checksum failure.
    bad = pristine;
    bad[bad.size() - 2] ^= 0x10;
    rejects(bad, "checksum");

    // Header/config-hash mismatch: flip one hex digit of the header's
    // config_hash while every section checksum stays valid.
    bad = pristine;
    const std::string tag = "\"config_hash\":\"";
    const std::size_t key = bad.find(tag);
    ASSERT_NE(key, std::string::npos);
    char &digit = bad[key + tag.size()];
    digit = (digit == '0') ? '1' : '0';
    rejects(bad, "header/config mismatch");
}

// ---------------------------------------------------------------------
// Scenario fingerprint
// ---------------------------------------------------------------------

TEST(ScenarioFingerprint, BlobRoundTripsAndHostKnobsAreExcluded)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.chains = 2;
    const std::string blob = serializeScenarioBlob(cfg);
    const ScenarioConfig back = deserializeScenarioBlob(blob);
    EXPECT_EQ(serializeScenarioBlob(back), blob);
    EXPECT_EQ(scenarioFingerprint(back), scenarioFingerprint(cfg));

    // Host-local knobs never enter the fingerprint: a resume may
    // change thread count or checkpoint cadence freely.
    ScenarioConfig tweaked = cfg;
    tweaked.threads = 8;
    tweaked.snapshot.everySlots = 5;
    tweaked.snapshot.dir = "/elsewhere";
    EXPECT_EQ(serializeScenarioBlob(tweaked), blob);
    EXPECT_EQ(scenarioFingerprint(tweaked), scenarioFingerprint(cfg));

    // Result-relevant fields do.
    ScenarioConfig reseeded = cfg;
    reseeded.seed = cfg.seed + 1;
    EXPECT_NE(scenarioFingerprint(reseeded), scenarioFingerprint(cfg));
    ScenarioConfig remoded = cfg;
    remoded.mode = OperatingMode::NosVp;
    EXPECT_NE(scenarioFingerprint(remoded), scenarioFingerprint(cfg));
}

/**
 * Byte offset of record @p path's payload in @p blob (records are
 * [u16 len][path][u8 type][payload]).
 */
std::size_t
payloadOffset(const std::string &blob, std::string_view path)
{
    RecordReader reader(blob);
    Record rec;
    while (reader.next(rec))
        if (rec.path == path)
            return static_cast<std::size_t>(rec.payload.data() -
                                             blob.data());
    ADD_FAILURE() << "no record " << path;
    return 0;
}

/** The retired grid value the tests below write: 2 s, little-endian. */
std::string
twoSecondGrid()
{
    std::string grid;
    snapshot::appendLe64(grid, static_cast<std::uint64_t>(2 * kSec));
    return grid;
}

/** The FatalError decoding config blob @p bytes raises ("" if none). */
std::string
decodeError(const std::string &bytes)
{
    try {
        deserializeScenarioBlob(bytes);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

// The energy cache is always on at a 1 s grid.  A config section that
// records another value was integrated on a deleted path, so decoding
// it names the record instead of resuming onto different income.
TEST(ScenarioFingerprint, RetiredEnergyCacheValuesAreRejected)
{
    const std::string blob = serializeScenarioBlob(ScenarioConfig{});
    EXPECT_EQ(decodeError(blob), "");

    std::string off = blob;
    off[payloadOffset(off, "energy_cache.enabled")] = 0;
    EXPECT_NE(decodeError(off).find("energy_cache"), std::string::npos);

    std::string coarse = blob;
    coarse.replace(payloadOffset(coarse, "energy_cache.grid"), 8,
                   twoSecondGrid());
    EXPECT_NE(decodeError(coarse).find("energy_cache"),
              std::string::npos);
}

// An enum travels as its integer and the day profile indexes a table,
// so a config blob holding a value no build writes would abort the
// engine (or be silently ignored) instead of being refused.  Decoding
// names the record.
TEST(ScenarioFingerprint, ValuesNoBuildWritesAreRejected)
{
    const std::string blob = serializeScenarioBlob(ScenarioConfig{});
    for (const auto &[record, value] :
         std::vector<std::pair<std::string, std::int32_t>>{
             {"mode", 7},
             {"mode", -1},
             {"trace_kind", 9},
             {"node_template.mode", 7},
             {"profile_index", -1}}) {
        std::string edited = blob;
        std::string payload;
        snapshot::appendLe32(payload, static_cast<std::uint32_t>(value));
        edited.replace(payloadOffset(edited, record), payload.size(),
                       payload);
        const std::string err = decodeError(edited);
        EXPECT_NE(err.find(record + " = " + std::to_string(value)),
                  std::string::npos)
            << record << " = " << value << ": " << err;
    }
}

// ---------------------------------------------------------------------
// Replay diffing
// ---------------------------------------------------------------------

TEST(Replay, ReportsFirstDivergingField)
{
    Outer a;
    a.count = 3;
    a.samples = {1.0, 2.0, 3.0};
    Outer b = a;

    const auto encode = [](Outer &o) {
        OutArchive out;
        out.io("outer", o);
        return out.take();
    };

    // Identical streams do not diverge.
    DiffResult same =
        snapshot::diffSections("chain0", encode(a), encode(b));
    EXPECT_FALSE(same.diverged);

    // A scalar difference names the full field path and both values.
    b.count = 4;
    DiffResult scalar =
        snapshot::diffSections("chain0", encode(a), encode(b));
    EXPECT_TRUE(scalar.diverged);
    EXPECT_EQ(scalar.where, "chain0");
    EXPECT_EQ(scalar.path, "outer.count");
    EXPECT_NE(scalar.detail.find("3"), std::string::npos);
    EXPECT_NE(scalar.detail.find("4"), std::string::npos);

    // A vector difference names the first differing element.
    b = a;
    b.samples[1] = 2.5;
    DiffResult vec =
        snapshot::diffSections("chain0", encode(a), encode(b));
    EXPECT_TRUE(vec.diverged);
    EXPECT_EQ(vec.path, "outer.samples");
    EXPECT_NE(vec.detail.find("element 1"), std::string::npos)
        << vec.detail;

    // Only the FIRST divergence is reported.
    b = a;
    b.flag = true;
    b.count = 9;
    DiffResult first =
        snapshot::diffSections("chain0", encode(a), encode(b));
    EXPECT_EQ(first.path, "outer.flag");
}

TEST(Replay, HeaderAndSectionDivergence)
{
    // Sections must hold real record streams for a full-snapshot diff.
    const auto makeSnapshot = [](std::uint32_t count) {
        Outer payload;
        payload.count = count;
        OutArchive out;
        out.io("outer", payload);
        Snapshot snap;
        snap.slot = 42;
        snap.seed = 7;
        snap.chains = 1;
        snap.sections.push_back({"chain0", out.take()});
        return snap;
    };

    Snapshot a = makeSnapshot(3);
    Snapshot b = makeSnapshot(3);
    EXPECT_FALSE(snapshot::diffSnapshots(a, b).diverged);

    b.slot = 43;
    DiffResult slot = snapshot::diffSnapshots(a, b);
    EXPECT_TRUE(slot.diverged);
    EXPECT_EQ(slot.where, "header");

    b = makeSnapshot(4);
    DiffResult body = snapshot::diffSnapshots(a, b);
    EXPECT_TRUE(body.diverged);
    EXPECT_EQ(body.where, "chain0");
    EXPECT_EQ(body.path, "outer.count");

    b = makeSnapshot(3);
    b.sections.pop_back();
    EXPECT_TRUE(snapshot::diffSnapshots(a, b).diverged);
}

// ---------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------

ScenarioConfig
resumeScenario(unsigned threads)
{
    // A shrunk fig-13 (rain trace, fios + distributed balancing,
    // multiplexing 3) so one run stays test-sized while still
    // exercising clone rotation, loss, and balancing.
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.chains = 3;
    cfg.horizon = kHour;
    cfg.seed = 77;
    cfg.threads = threads;
    return cfg;
}

TEST(Resume, RejectsCorruptOrMissingSnapshots)
{
    const ScratchDir dir("resume_reject");
    EXPECT_THROW(FogSystem::resume(dir.path()), FatalError);

    const std::string bogus = dir.file("bogus.nfsnap");
    spit(bogus, "NOT A SNAPSHOT AT ALL........");
    EXPECT_THROW(FogSystem::resume(bogus), FatalError);

    // A snapshot without a config section cannot seed a resume.
    Snapshot snap;
    snap.slot = 1;
    snap.sections.push_back({"chain0", "x"});
    const std::string configless = dir.file("configless.nfsnap");
    snapshot::writeSnapshot(configless, snap);
    EXPECT_THROW(FogSystem::resume(configless), FatalError);
}

// A snapshot written with the energy cache off, or on another grid,
// integrated its income on a deleted path.  Resuming it fails naming
// the record instead of continuing onto different income; the same
// file with the always-on values resumes.
TEST(Resume, RefusesRetiredEnergyCacheValues)
{
    const ScratchDir dir("resume_retired_cache");
    ScenarioConfig cfg = resumeScenario(1);
    cfg.horizon = 10 * kMin;
    cfg.snapshot.everySlots = 10;
    cfg.snapshot.dir = dir.path();
    FogSystem(cfg).run();
    const std::string taken = dir.file(snapshot::snapshotFileName(10));
    ASSERT_TRUE(fs::exists(taken)) << taken;
    EXPECT_EQ(FogSystem::resume(taken)->resumeSlot(), 10);

    const Snapshot pristine = snapshot::readSnapshot(taken);
    const auto resumeError = [&](std::string_view record,
                                 const std::string &payload) {
        Snapshot edited = pristine;
        for (snapshot::Section &section : edited.sections) {
            if (section.name == "config")
                section.data.replace(payloadOffset(section.data, record),
                                     payload.size(), payload);
        }
        const std::string path = dir.file("edited.nfsnap");
        snapshot::writeSnapshot(path, edited);
        try {
            FogSystem::resume(path);
        } catch (const FatalError &err) {
            return std::string(err.what());
        }
        return std::string();
    };
    const std::string off = resumeError("energy_cache.enabled",
                                        std::string(1, '\0'));
    EXPECT_NE(off.find("energy_cache.enabled = false"), std::string::npos)
        << off;
    const std::string coarse =
        resumeError("energy_cache.grid", twoSecondGrid());
    EXPECT_NE(coarse.find("energy_cache.grid = 2 s"), std::string::npos)
        << coarse;
}

// ---------------------------------------------------------------------
// Hostile chain sections: real snapshot files with one record edited
// (and the section's size and checksum rewritten) must be refused on
// resume with a message naming the record.
// ---------------------------------------------------------------------

/** neofog_cli's scenario before any flag (examples/neofog_cli.cpp). */
ScenarioConfig
cliDefaults()
{
    ScenarioConfig cfg;
    cfg.nodesPerChain = 10;
    cfg.chains = 1;
    cfg.horizon = 5 * kHour;
    cfg.slotInterval = 12 * kSec;
    cfg.traceKind = TraceKind::ForestIndependent;
    cfg.meanIncome = Power::fromMilliwatts(2.6);
    cfg.mode = OperatingMode::FiosNvMote;
    cfg.balancerPolicy = "distributed";
    cfg.nodeTemplate = presets::systemNodeTemplate();
    cfg.seed = 1;
    return cfg;
}

/**
 * Run @p cfg with a checkpoint every 40 slots into @p dir and return
 * the slot-40 snapshot.
 */
Snapshot
slot40Snapshot(ScenarioConfig cfg, const ScratchDir &dir)
{
    cfg.snapshot.everySlots = 40;
    cfg.snapshot.dir = dir.path();
    FogSystem(cfg).run();
    return snapshot::readSnapshot(dir.file(snapshot::snapshotFileName(40)));
}

/** Replace the whole record @p path of @p blob with @p record. */
void
replaceRecord(std::string &blob, std::string_view path,
              const std::string &record)
{
    RecordReader reader(blob);
    Record rec;
    std::size_t start = 0;
    while (reader.next(rec)) {
        if (rec.path == path) {
            blob.replace(start, reader.position() - start, record);
            return;
        }
        start = reader.position();
    }
    ADD_FAILURE() << "no record " << path;
}

/**
 * Write @p pristine with @p edit applied to section @p name into
 * @p dir, resume from it, and return the FatalError's message ("" if
 * the resume succeeds).
 */
template <class Edit>
std::string
resumeErrorAfterEdit(const Snapshot &pristine, const std::string &name,
                     const ScratchDir &dir, Edit edit)
{
    Snapshot edited = pristine;
    for (snapshot::Section &section : edited.sections)
        if (section.name == name)
            edit(section.data);
    const std::string path = dir.file("edited.nfsnap");
    snapshot::writeSnapshot(path, edited);
    try {
        FogSystem::resume(path);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

// The node template's clock builds every processor of the run.  A
// file holding a clock that is not positive and finite is refused on
// resume: a NaN clock used to resume with exit 0 onto a wrong report.
TEST(Resume, RefusesProcessorClockNotPositiveAndFinite)
{
    const ScratchDir dir("resume_processor_clock");
    ScenarioConfig cfg = resumeScenario(1);
    cfg.horizon = 10 * kMin;
    cfg.snapshot.everySlots = 10;
    cfg.snapshot.dir = dir.path();
    FogSystem(cfg).run();
    const Snapshot pristine =
        snapshot::readSnapshot(dir.file(snapshot::snapshotFileName(10)));
    for (const double mhz : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 0.0,
                             -16.0}) {
        const std::string err = resumeErrorAfterEdit(
            pristine, "config", dir, [&](std::string &data) {
                std::string bits;
                snapshot::appendLe64(bits,
                                     std::bit_cast<std::uint64_t>(mhz));
                data.replace(
                    payloadOffset(data, "node_template.processor_mhz"),
                    bits.size(), bits);
            });
        EXPECT_NE(err.find("processor clock"), std::string::npos)
            << mhz << ": " << err;
    }
}

/** Flag set A: FIOS rain chains at multiplexing 3, NVRF radios. */
ScenarioConfig
flagSetA()
{
    ScenarioConfig cfg = cliDefaults();
    cfg.traceKind = TraceKind::RainLow;
    cfg.chains = 6;
    cfg.horizon = kHour;
    cfg.multiplexing = 3;
    cfg.seed = 13;
    return cfg;
}

/** Flag set A's slot-40 snapshot. */
Snapshot
flagSetASnapshot(const ScratchDir &dir)
{
    return slot40Snapshot(flagSetA(), dir);
}

/** Replace each record of @p blob that @p records holds a new one of. */
void
replaceRecords(std::string &blob, const std::string &records)
{
    RecordReader reader(records);
    Record rec;
    std::size_t start = 0;
    while (reader.next(rec)) {
        replaceRecord(blob, rec.path,
                      records.substr(start, reader.position() - start));
        start = reader.position();
    }
}

// Files older builds wrote hold each node's capacitor history and a
// stream forked for the node.  Neither is restart state, so such a
// file resumes and finishes on the uninterrupted report.
TEST(Resume, FilesWithNodeHistoryAndStreamsResume)
{
    const ScratchDir dir("resume_node_history");
    const Snapshot pristine = flagSetASnapshot(dir);
    const SystemReport uninterrupted = FogSystem(flagSetA()).run();

    OutArchive ar;
    ar.pushScope("chain0.node3");
    std::vector<TimeSeries::Point> history;
    for (int k = 0; k < 14; ++k)
        history.push_back({3 * k * 12 * kSec, 60.0 + k});
    ar.io("stats.stored_energy_mj.points", history);
    Rng forked = Rng(13).fork();
    ar.io("rng", forked);
    const std::string records = ar.take();

    Snapshot older = pristine;
    for (snapshot::Section &section : older.sections) {
        if (section.name != "chain0")
            continue;
        replaceRecords(section.data, records);
        EXPECT_EQ(section.data.size(),
                  pristine.find("chain0")->data.size() +
                      14 * sizeof(TimeSeries::Point));
    }
    const std::string path = dir.file("older.nfsnap");
    snapshot::writeSnapshot(path, older);
    const auto resumed = FogSystem::resume(path);
    EXPECT_EQ(resumed->resumeSlot(), 40);
    EXPECT_EQ(resumed->run(), uninterrupted);
}

// Older builds archived probe rings in the chain sections and the
// probe switch in the config section.  Neither is restart state, so a
// file with probes.enabled = true and a ring holding samples under a
// head that once crashed resume (past the ring) resumes at its slot
// and finishes on the uninterrupted report.
TEST(Resume, ProbeRecordsAreDiscarded)
{
    const ScratchDir dir("resume_probe_records");
    const Snapshot pristine = flagSetASnapshot(dir);
    const SystemReport uninterrupted = FogSystem(flagSetA()).run();

    OutArchive ar;
    ar.pushScope("chain0.probe.stored_energy_mj");
    std::vector<TimeSeries::Point> ring;
    for (int k = 0; k < 4; ++k)
        ring.push_back({(36 + k) * 12 * kSec, 60.0 + k});
    std::uint64_t capacity = 4;
    std::uint64_t head = 1000000;
    std::uint64_t pushed = 40;
    ar.io("buf", ring);
    ar.io("capacity", capacity);
    ar.io("head", head);
    ar.io("pushed", pushed);
    const std::string records = ar.take();

    Snapshot older = pristine;
    for (snapshot::Section &section : older.sections) {
        if (section.name == "config")
            section.data[payloadOffset(section.data, "probes.enabled")] = 1;
        if (section.name == "chain0")
            replaceRecords(section.data, records);
    }
    const std::string path = dir.file("older.nfsnap");
    snapshot::writeSnapshot(path, older);
    const auto resumed = FogSystem::resume(path);
    EXPECT_EQ(resumed->resumeSlot(), 40);
    EXPECT_EQ(resumed->run(), uninterrupted);
}

/** Whether @p a and @p b hold the same points, bit for bit. */
bool
samePoints(const std::vector<TimeSeries::Point> &a,
           const std::vector<TimeSeries::Point> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t k = 0; k < a.size(); ++k)
        if (a[k].when != b[k].when ||
            std::bit_cast<std::uint64_t>(a[k].value) !=
                std::bit_cast<std::uint64_t>(b[k].value))
            return false;
    return true;
}

/** Chain 0's probe log of capacity @p capacity over @p sys's run. */
ChainProbeLog
chain0ProbeLog(FogSystem &sys, std::size_t capacity)
{
    ChainProbeLog log(capacity);
    sys.setProbeLog(0, &log);
    sys.run();
    return log;
}

// A probe log is host-local: attached after a resume, it holds exactly
// the slots that process runs, and a ring that wraps after the resume
// slot equals the uninterrupted run's.
TEST(Resume, ProbeLogCoversTheResumedSlots)
{
    const ScratchDir dir("resume_probe_log");
    flagSetASnapshot(dir);
    const std::string file = dir.file(snapshot::snapshotFileName(40));
    const ScenarioConfig cfg = flagSetA();
    const std::int64_t slots = cfg.slotCount();

    const auto all = chain0ProbeLog(*FogSystem::resume(file),
                                    static_cast<std::size_t>(slots));
    ASSERT_EQ(all.storedEnergyMj.pushed(),
              static_cast<std::uint64_t>(slots - 40));
    for (const auto &s : all.series(0)) {
        ASSERT_EQ(s.points.size(), static_cast<std::size_t>(slots - 40))
            << s.name;
        EXPECT_EQ(s.points.front().when, 40 * cfg.slotInterval) << s.name;
        EXPECT_EQ(s.points.back().when, (slots - 1) * cfg.slotInterval)
            << s.name;
    }

    FogSystem whole(cfg);
    const auto want = chain0ProbeLog(whole, 8).series(0);
    const auto got = chain0ProbeLog(*FogSystem::resume(file), 8).series(0);
    ASSERT_EQ(got.size(), 4u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_TRUE(samePoints(got[i].points, want[i].points))
            << got[i].name;
    }
}

// Attached probe logs leave the snapshot alone: flag set A's files at
// slots 40 and 280 hold the same sections, byte for byte, with and
// without a log on every chain.
TEST(SnapshotSchema, ProbeLogsLeaveSnapshotsUnchanged)
{
    const ScratchDir plain("snapshot_without_probe_logs");
    const ScratchDir probed("snapshot_with_probe_logs");
    ScenarioConfig cfg = flagSetA();
    cfg.snapshot.everySlots = 40;
    cfg.snapshot.dir = plain.path();
    FogSystem(cfg).run();
    cfg.snapshot.dir = probed.path();
    FogSystem sys(cfg);
    std::vector<ChainProbeLog> logs(cfg.chains, ChainProbeLog(4096));
    for (std::size_t c = 0; c < logs.size(); ++c)
        sys.setProbeLog(c, &logs[c]);
    sys.run();
    EXPECT_EQ(logs[5].yieldFrac.size(),
              static_cast<std::size_t>(cfg.slotCount()));

    for (const std::int64_t slot : {40, 280}) {
        const Snapshot want = snapshot::readSnapshot(
            plain.file(snapshot::snapshotFileName(slot)));
        const Snapshot got = snapshot::readSnapshot(
            probed.file(snapshot::snapshotFileName(slot)));
        ASSERT_EQ(got.sections.size(), want.sections.size());
        for (const snapshot::Section &section : want.sections) {
            const snapshot::Section *other = got.find(section.name);
            ASSERT_NE(other, nullptr) << section.name;
            EXPECT_EQ(other->data, section.data)
                << section.name << " at slot " << slot;
        }
    }
}

// Every f64 of the config section is a rate, fraction, clock, energy
// or power of the scenario, and none may be NaN, negative or
// infinite.  Each such edit of flag set A's slot-40 file is refused on
// resume; they used to abort the run or resume onto another report.
TEST(Resume, RefusesNonFiniteOrNegativeScenarioConstants)
{
    const ScratchDir dir("resume_hostile_constants");
    const Snapshot pristine = flagSetASnapshot(dir);
    EXPECT_EQ(resumeErrorAfterEdit(pristine, "config", dir,
                                   [](std::string &) {}),
              "");

    std::vector<std::string> records;
    for (const auto &[path, type] : configSectionSchema(flagSetA()))
        if (type == "f64")
            records.push_back(path);
    ASSERT_EQ(records.size(), 20u);
    for (const std::string &record : records) {
        for (const double value :
             {std::numeric_limits<double>::quiet_NaN(), -1.0,
              std::numeric_limits<double>::infinity()}) {
            const std::string err = resumeErrorAfterEdit(
                pristine, "config", dir, [&](std::string &data) {
                    std::string bits;
                    snapshot::appendLe64(
                        bits, std::bit_cast<std::uint64_t>(value));
                    data.replace(payloadOffset(data, record), bits.size(),
                                 bits);
                });
            EXPECT_NE(err, "") << record << " = " << value;
        }
    }
}

// A node's records do not grow with the slot index: flag set A's
// chain0 section has one size at slots 40 and 280, and in it every
// node's history record is empty and its rng records hold a default
// Rng.
TEST(SnapshotSchema, NodeRecordsDoNotGrowWithTheHorizon)
{
    const ScratchDir dir("snapshot_node_bytes");
    ScenarioConfig cfg = flagSetA();
    cfg.snapshot.everySlots = 40;
    cfg.snapshot.dir = dir.path();
    FogSystem(cfg).run();

    OutArchive fixed;
    Rng stream;
    fixed.io("rng", stream);
    std::vector<TimeSeries::Point> none;
    fixed.io("stored_energy_mj.points", none);
    const std::string fixed_records = fixed.take();
    std::map<std::string, std::string> want; // field -> payload
    RecordReader fixed_reader(fixed_records);
    Record rec;
    while (fixed_reader.next(rec))
        want[std::string(rec.path)] = std::string(rec.payload);

    std::size_t bytes[2] = {};
    for (const std::int64_t slot : {40, 280}) {
        const Snapshot snap = snapshot::readSnapshot(
            dir.file(snapshot::snapshotFileName(slot)));
        const snapshot::Section *sec = snap.find("chain0");
        ASSERT_NE(sec, nullptr);
        bytes[slot == 280] = sec->data.size();
        std::size_t checked = 0;
        RecordReader reader(sec->data);
        while (reader.next(rec)) {
            const std::string path(rec.path);
            if (path.rfind("chain0.node", 0) != 0)
                continue;
            std::string field = path.substr(path.find('.', 7) + 1);
            if (field.rfind("stats.", 0) == 0)
                field = field.substr(6);
            const auto it = want.find(field);
            if (it == want.end())
                continue;
            EXPECT_EQ(std::string(rec.payload), it->second)
                << path << " at slot " << slot;
            ++checked;
        }
        // 30 nodes, 6 rng records and one history record each.
        EXPECT_EQ(checked, 30u * 7u) << "slot " << slot;
    }
    EXPECT_EQ(bytes[0], bytes[1]);
}

// heal() indexes alive_last_slot once per logical node, so a chain
// section whose vector has another length is refused.
TEST(Resume, RefusesAliveLastSlotOfOtherLength)
{
    const ScratchDir dir("resume_alive_length");
    const Snapshot pristine = flagSetASnapshot(dir);

    for (const std::size_t entries : {0u, 2u}) {
        snapshot::OutArchive ar;
        ar.pushScope("chain0");
        std::vector<bool> alive(entries, true);
        ar.io("alive_last_slot", alive);
        const std::string record = ar.take();
        const std::string err = resumeErrorAfterEdit(
            pristine, "chain0", dir, [&](std::string &data) {
                replaceRecord(data, "chain0.alive_last_slot", record);
            });
        EXPECT_NE(err.find("chain0.alive_last_slot"), std::string::npos)
            << entries << " entries: " << err;
    }
}

// A chain's clone groups rotate together, so group records that
// disagree describe no schedule the engine can run.
TEST(Resume, RefusesClonesRotatedApart)
{
    const ScratchDir dir("resume_rotated_apart");
    ScenarioConfig cfg = cliDefaults(); // flag set E
    cfg.traceKind = TraceKind::RainLow;
    cfg.balancerPolicy = "delay-energy";
    cfg.hopByHopRelay = true;
    cfg.realTimeRequestChance = 0.05;
    cfg.nodesPerChain = 12;
    cfg.chains = 3;
    cfg.horizon = 2 * kHour;
    cfg.multiplexing = 3;
    cfg.seed = 21;
    cfg.meanIncome = Power::fromMilliwatts(0.7);
    const Snapshot pristine = slot40Snapshot(cfg, dir);

    const std::string record = "chain0.group4.rotation";
    const std::string err = resumeErrorAfterEdit(
        pristine, "chain0", dir, [&](std::string &data) {
            std::string one;
            snapshot::appendLe32(one, 1);
            data.replace(payloadOffset(data, record), one.size(), one);
        });
    EXPECT_NE(err.find(record), std::string::npos) << err;
}

// Every NVRF is configured at deployment and no run unconfigures it.
// A node resumed as unconfigured would pay the one-time 28 ms setup on
// every wake, so the record is refused.
TEST(Resume, RefusesUnconfiguredNvrf)
{
    const ScratchDir dir("resume_nvrf_configured");
    const Snapshot pristine = flagSetASnapshot(dir);
    const std::string record = "chain0.node0.nvrf.configured";
    const std::string err = resumeErrorAfterEdit(
        pristine, "chain0", dir,
        [&](std::string &data) { data[payloadOffset(data, record)] = 0; });
    EXPECT_NE(err.find(record), std::string::npos) << err;
}

// No run changes a node's radio state, so a snapshot that holds
// another one describes no node the engine builds.
TEST(Resume, RefusesRadioStateNoRunWrites)
{
    const ScratchDir dir("resume_rf_state");
    const Snapshot pristine = flagSetASnapshot(dir);
    for (const char *field : {"channel", "wake_interval_multiplier"}) {
        const std::string record =
            std::string("chain0.node3.rf_state.") + field;
        const std::string err = resumeErrorAfterEdit(
            pristine, "chain0", dir, [&](std::string &data) {
                std::string twelve;
                snapshot::appendLe32(twelve, 12);
                data.replace(payloadOffset(data, record), twelve.size(),
                             twelve);
            });
        EXPECT_NE(err.find(record), std::string::npos) << err;
    }

    snapshot::OutArchive ar;
    ar.pushScope("chain0.node3.rf_state");
    std::vector<std::uint32_t> neighbours{2, 4};
    ar.io("associated_dev_list", neighbours);
    const std::string list = ar.take();
    const std::string record = "chain0.node3.rf_state.associated_dev_list";
    const std::string err = resumeErrorAfterEdit(
        pristine, "chain0", dir,
        [&](std::string &data) { replaceRecord(data, record, list); });
    EXPECT_NE(err.find(record), std::string::npos) << err;
}

// A node's records hold no buffer capacity: the resume checks each
// loaded buffer against the system's spec, so a buffer filled past the
// capacity is refused by record name and one filled exactly to it
// resumes.
TEST(Resume, RefusesBufferFilledPastCapacity)
{
    const ScratchDir dir("resume_buffer_size");
    const Snapshot pristine = flagSetASnapshot(dir);
    const std::uint64_t capacity =
        flagSetA().nodeConfig().buffer.capacityBytes;
    const std::string record = "chain0.node1.buffer.size";
    const auto resume_filled = [&](std::uint64_t size) {
        return resumeErrorAfterEdit(
            pristine, "chain0", dir, [&](std::string &data) {
                std::string bytes;
                snapshot::appendLe64(bytes, size);
                data.replace(payloadOffset(data, record), bytes.size(),
                             bytes);
            });
    };
    EXPECT_EQ(resume_filled(capacity), "");
    const std::string err = resume_filled(capacity + 1);
    EXPECT_NE(err.find(record), std::string::npos) << err;
}

// A node counts the raw packages its NV buffer holds in an int.  A
// capacity of 2^31 packages used to give INT_MIN of them and 2^32
// none, and either file resumed onto nodes that never sampled.  Both
// are refused, and the largest capacity an int counts resumes.
TEST(Resume, RefusesBufferPackagesPastInt)
{
    const ScratchDir dir("resume_buffer_packages");
    const Snapshot pristine = flagSetASnapshot(dir);
    const std::uint64_t raw = flagSetA().nodeConfig().rawPackageBytes;
    const auto resume_with = [&](std::uint64_t packages) {
        return resumeErrorAfterEdit(
            pristine, "config", dir, [&](std::string &data) {
                std::string bytes;
                snapshot::appendLe64(bytes, raw * packages);
                data.replace(
                    payloadOffset(data,
                                  "node_template.buffer.capacity_bytes"),
                    bytes.size(), bytes);
            });
    };
    const std::uint64_t most = std::numeric_limits<int>::max();
    EXPECT_EQ(resume_with(most), "");
    for (const std::uint64_t packages : {most + 1, 2 * (most + 1)}) {
        const std::string err = resume_with(packages);
        EXPECT_NE(err.find("raw packages"), std::string::npos)
            << packages << ": " << err;
    }
}

// A mux-3 fleet rotating its clones every 5 slots, checkpointed after
// four rotations, resumes onto the uninterrupted report; each chain
// writes its rotation count once per logical node.
TEST(Resume, RotatedClonesStayBitIdentical)
{
    const ScratchDir dir("resume_rotated");
    ScenarioConfig cfg = resumeScenario(1);
    cfg.horizon = 60 * cfg.slotInterval;
    cfg.membershipUpdateInterval = 5 * cfg.slotInterval;
    const SystemReport reference = FogSystem(cfg).run();
    EXPECT_EQ(reference.membershipUpdates,
              11u * cfg.nodesPerChain * cfg.chains);

    ScenarioConfig snapping = cfg;
    snapping.snapshot.everySlots = 23;
    snapping.snapshot.dir = dir.path();
    EXPECT_EQ(FogSystem(snapping).run(), reference);

    // Slots 5, 10, 15 and 20 rotated before the checkpoint at 23.
    const std::string path = dir.file(snapshot::snapshotFileName(23));
    const Snapshot snap = snapshot::readSnapshot(path);
    for (std::size_t c = 0; c < cfg.chains; ++c) {
        const std::string chain = "chain" + std::to_string(c);
        const snapshot::Section *sec = snap.find(chain);
        ASSERT_NE(sec, nullptr) << chain;
        for (std::size_t l = 0; l < cfg.nodesPerChain; ++l) {
            const std::string record =
                chain + ".group" + std::to_string(l) + ".rotation";
            const auto *payload = reinterpret_cast<const unsigned char *>(
                sec->data.data() + payloadOffset(sec->data, record));
            EXPECT_EQ(snapshot::readLe32(payload), 4u) << record;
        }
    }
    for (const unsigned threads : {1u, 4u}) {
        auto resumed = FogSystem::resume(path, threads);
        EXPECT_EQ(resumed->resumeSlot(), 23);
        EXPECT_EQ(resumed->run(), reference) << "threads " << threads;
    }
}

// The tentpole contract, enforced here rather than by convention:
// for random split slots s and any thread count, run(0..H) and
// run(0..s); resume; run(s..H) produce operator==-equal reports.
TEST(Resume, BitIdentityAcrossSplitSlotsAndThreadCounts)
{
    const ScratchDir dir("resume_identity");

    const SystemReport reference =
        FogSystem(resumeScenario(1)).run();

    // A snapshotting run (under a different thread count, even) must
    // not perturb a single report bit.
    constexpr std::int64_t kEvery = 7;
    ScenarioConfig snapping = resumeScenario(2);
    snapping.snapshot.everySlots = kEvery;
    snapping.snapshot.dir = dir.path();
    EXPECT_EQ(FogSystem(snapping).run(), reference);

    const std::int64_t slots = snapping.slotCount();
    ASSERT_EQ(slots, 300);

    // >= 3 random split slots from the checkpoint grid.
    std::minstd_rand pick(20260806);
    std::vector<std::int64_t> splits;
    while (splits.size() < 3) {
        const std::int64_t s =
            (1 + static_cast<std::int64_t>(pick() %
                                           ((slots - 1) / kEvery))) *
            kEvery;
        if (std::find(splits.begin(), splits.end(), s) ==
            splits.end())
            splits.push_back(s);
    }

    for (const std::int64_t split : splits) {
        const std::string path =
            dir.file(snapshot::snapshotFileName(split));
        ASSERT_TRUE(fs::exists(path)) << path;
        for (const unsigned threads : {1u, 2u, 4u}) {
            auto resumed = FogSystem::resume(path, threads);
            EXPECT_EQ(resumed->resumeSlot(), split);
            EXPECT_EQ(resumed->config().seed, snapping.seed);
            EXPECT_EQ(resumed->run(), reference)
                << "split " << split << ", threads " << threads;
        }
    }
}

/**
 * Checkpoint @p cfg every 9 slots, then resume from slot 18 at one
 * and four threads: both must land on the uninterrupted report.
 */
void
expectMidRunResumeIdentical(const ScenarioConfig &cfg,
                            const std::string &tag)
{
    const ScratchDir dir(tag);
    const SystemReport reference = FogSystem(cfg).run();

    ScenarioConfig snapping = cfg;
    snapping.snapshot.everySlots = 9;
    snapping.snapshot.dir = dir.path();
    EXPECT_EQ(FogSystem(snapping).run(), reference);

    const std::string path = dir.file(snapshot::snapshotFileName(18));
    ASSERT_TRUE(fs::exists(path)) << path;
    for (const unsigned threads : {1u, 4u}) {
        auto resumed = FogSystem::resume(path, threads);
        EXPECT_EQ(resumed->resumeSlot(), 18);
        EXPECT_EQ(resumed->run(), reference)
            << "resume diverged at threads=" << threads;
    }
}

// The fig-13 scenario above takes its income through the hoist's
// shared rain stream; a constant level steps each node through its own
// trace, with the same resume contract.
TEST(Resume, ConstantTraceStaysBitIdentical)
{
    ScenarioConfig cfg;
    cfg.chains = 3;
    cfg.nodesPerChain = 8;
    cfg.multiplexing = 2;
    cfg.mode = OperatingMode::FiosNvMote;
    cfg.traceKind = TraceKind::Constant;
    cfg.meanIncome = Power::fromMilliwatts(2.2);
    cfg.balancerPolicy = "distributed";
    cfg.horizon = kHour;
    cfg.seed = 31;
    expectMidRunResumeIdentical(cfg, "resume_constant");
}

// Independent forest traces are not hoisted: every node integrates its
// own trace, whose cursor a resume rebuilds from the archived window.
TEST(Resume, PerNodeTraceStaysBitIdentical)
{
    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.chains = 3;
    cfg.multiplexing = 2;
    cfg.horizon = kHour;
    cfg.seed = 41;
    expectMidRunResumeIdentical(cfg, "resume_per_node");
}

// Resuming may itself snapshot; a second-generation resume must
// still land on the reference bits (crash during the resumed run).
TEST(Resume, ChainedResumeStaysBitIdentical)
{
    const ScratchDir first("resume_chain_a");
    const ScratchDir second("resume_chain_b");

    const SystemReport reference =
        FogSystem(resumeScenario(2)).run();

    ScenarioConfig snapping = resumeScenario(1);
    snapping.snapshot.everySlots = 60;
    snapping.snapshot.dir = first.path();
    FogSystem(snapping).run();

    ScenarioConfig::SnapshotConfig resnap;
    resnap.everySlots = 90;
    resnap.dir = second.path();
    auto once = FogSystem::resume(
        first.file(snapshot::snapshotFileName(60)), 4, resnap);
    EXPECT_EQ(once->run(), reference);

    // The resumed run checkpointed at slots 90/180/270; resume again
    // from its latest shard set, as the CI kill lane does.
    auto twice = FogSystem::resume(second.path(), 2);
    EXPECT_EQ(twice->resumeSlot(), 270);
    EXPECT_EQ(twice->run(), reference);
}

// ---------------------------------------------------------------------
// Checkpoint cadence
// ---------------------------------------------------------------------

constexpr std::int64_t kCadenceSlots = 30;

/** Every file name in @p dir. */
std::set<std::string>
fileNames(const std::string &dir)
{
    std::set<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    return names;
}

/** Checkpoint files at the multiples of @p every in (from, slots). */
std::set<std::string>
expectedCheckpoints(std::int64_t from, std::int64_t slots,
                    std::int64_t every)
{
    std::set<std::string> names;
    for (std::int64_t k = every; k < slots; k += every) {
        if (k > from)
            names.insert(snapshot::snapshotFileName(k));
    }
    return names;
}

class CheckpointCadence : public ::testing::TestWithParam<std::int64_t>
{
};

// run() checkpoints at exactly the multiples of everySlots strictly
// inside the horizon; a run resumed from the first checkpoint writes
// only the later ones and lands on the uninterrupted report.
TEST_P(CheckpointCadence, WritesEveryMultipleInsideTheHorizon)
{
    const std::int64_t every = GetParam();
    const std::string tag = "cadence_" + std::to_string(every);
    const ScratchDir dir(tag);
    const ScratchDir resumed_dir(tag + "_resumed");

    ScenarioConfig cfg = resumeScenario(1);
    cfg.chains = 2;
    cfg.horizon = kCadenceSlots * cfg.slotInterval;
    ASSERT_EQ(cfg.slotCount(), kCadenceSlots);
    const SystemReport reference = FogSystem(cfg).run();

    cfg.snapshot.everySlots = every;
    cfg.snapshot.dir = dir.path();
    EXPECT_EQ(FogSystem(cfg).run(), reference);
    EXPECT_EQ(fileNames(dir.path()),
              expectedCheckpoints(0, kCadenceSlots, every));
    if (every >= kCadenceSlots)
        return; // no checkpoint to resume from

    ScenarioConfig::SnapshotConfig resnap;
    resnap.everySlots = every;
    resnap.dir = resumed_dir.path();
    auto resumed = FogSystem::resume(
        dir.file(snapshot::snapshotFileName(every)), 1, resnap);
    EXPECT_EQ(resumed->resumeSlot(), every);
    EXPECT_EQ(resumed->run(), reference);
    EXPECT_EQ(fileNames(resumed_dir.path()),
              expectedCheckpoints(every, kCadenceSlots, every));
}

INSTANTIATE_TEST_SUITE_P(
    Every, CheckpointCadence,
    ::testing::Values<std::int64_t>(1, 7, kCadenceSlots - 1,
                                    kCadenceSlots, kCadenceSlots + 1));

} // namespace
} // namespace neofog
