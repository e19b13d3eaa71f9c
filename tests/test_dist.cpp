/**
 * @file
 * Distributed-sharding tests (`ctest -L dist`): wire framing and
 * corruption rejection, the HELLO handshake guard, partitioner
 * properties, worker-count clamping, the rotation-digest barrier
 * check, in-process partition windows merging to the full run, and
 * the tentpole contract — runDistributed() bit-identical (registry
 * operator==) to FogSystem::run() for any worker count, composed
 * with threads, and across a checkpoint/resume cycle.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/partition.hh"
#include "dist/wire.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "fog/scenario.hh"
#include "fog/snapshot_io.hh"
#include "fog/system_report.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"
#include "snapshot/archive.hh"
#include "snapshot/replay.hh"

namespace neofog {
namespace {

namespace fs = std::filesystem;
using dist::ChainRange;
using dist::Frame;
using dist::MsgType;
using dist::WireClosed;
using dist::WireConn;

/** Self-deleting scratch directory for checkpoint tests. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : _path(fs::temp_directory_path() / ("neofog_dist_test_" + tag))
    {
        fs::remove_all(_path);
        fs::create_directories(_path);
    }
    ~ScratchDir() { fs::remove_all(_path); }

    std::string path() const { return _path.string(); }

  private:
    fs::path _path;
};

/** The shrunk fig-13 scenario the resume suite also runs. */
ScenarioConfig
distScenario(unsigned threads = 1)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.chains = 3;
    cfg.horizon = kHour;
    cfg.seed = 77;
    cfg.threads = threads;
    return cfg;
}

void
expectFatalContaining(const std::function<void()> &fn,
                      const std::string &needle)
{
    try {
        fn();
        FAIL() << "expected FatalError containing '" << needle << "'";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << err.what();
    }
}

// ---------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------

TEST(Wire, FrameRoundTrip)
{
    const std::string payload = "alpha\0beta and some bytes";
    const std::string bytes =
        dist::encodeFrame(MsgType::Shard, payload);
    EXPECT_EQ(bytes.size(), dist::kFrameHeaderBytes + payload.size());

    std::size_t consumed = 0;
    const Frame frame = dist::decodeFrame(bytes, consumed);
    EXPECT_EQ(frame.type, MsgType::Shard);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(consumed, bytes.size());

    // An empty payload is a legal frame (STEP acks, SHUTDOWN, ...).
    const std::string empty = dist::encodeFrame(MsgType::Shutdown, {});
    EXPECT_EQ(empty.size(), dist::kFrameHeaderBytes);
    const Frame bare = dist::decodeFrame(empty, consumed);
    EXPECT_EQ(bare.type, MsgType::Shutdown);
    EXPECT_TRUE(bare.payload.empty());
}

TEST(Wire, FrameRejectsCorruptionLoudly)
{
    const std::string good = dist::encodeFrame(MsgType::Step, "payload");
    std::size_t consumed = 0;

    // Header truncation.
    expectFatalContaining(
        [&] { dist::decodeFrame(good.substr(0, 5), consumed); },
        "truncated");
    // Payload truncation.
    expectFatalContaining(
        [&] {
            dist::decodeFrame(good.substr(0, good.size() - 2), consumed);
        },
        "truncated");
    // Unknown message type tag.
    std::string bad = good;
    bad[4] = 99;
    expectFatalContaining([&] { dist::decodeFrame(bad, consumed); },
                          "unknown message type");
    // Oversize claimed length.
    bad = good;
    bad[3] = '\x7f'; // length u32 high byte -> ~2 GiB
    expectFatalContaining([&] { dist::decodeFrame(bad, consumed); },
                          "cap");
    // Flipped payload byte: checksum mismatch, caught before decode.
    bad = good;
    bad[bad.size() - 1] ^= 0x01;
    expectFatalContaining([&] { dist::decodeFrame(bad, consumed); },
                          "checksum");
    // Oversize payloads are refused at encode time too.
    expectFatalContaining(
        [&] {
            dist::encodeFrame(
                MsgType::Shard,
                std::string(dist::kMaxPayloadBytes + 1, 'x'));
        },
        "cap");
}

TEST(Wire, ConnRoundTripAndPeerDeathOverSocketpair)
{
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    WireConn a(fds[0]);
    {
        WireConn b(fds[1]);

        dist::StepOkMsg sent;
        sent.slot = 1234;
        sent.rotationDigest = 0xDEADBEEFCAFEF00DULL;
        a.send(MsgType::StepOk, dist::encodeMsg(sent));

        const Frame frame = b.expect(MsgType::StepOk);
        const auto got = dist::decodeMsg<dist::StepOkMsg>(frame.payload);
        EXPECT_EQ(got.slot, sent.slot);
        EXPECT_EQ(got.rotationDigest, sent.rotationDigest);

        // A type other than the expected one is a protocol desync.
        b.send(MsgType::Bye);
        expectFatalContaining([&] { a.expect(MsgType::StepOk); },
                              "desync");
        // ~WireConn closes b's end here.
    }
    // The peer is gone: recv reports WireClosed, never a short frame.
    EXPECT_THROW(a.recv(), WireClosed);
}

TEST(Wire, MessageCodecRejectsTrailingBytes)
{
    dist::AssignMsg assign;
    assign.chainLo = 2;
    assign.chainHi = 5;
    assign.resume = true;
    assign.snapshotDir = "/tmp/somewhere";

    const std::string blob = dist::encodeMsg(assign);
    const auto back = dist::decodeMsg<dist::AssignMsg>(blob);
    EXPECT_EQ(back.chainLo, 2u);
    EXPECT_EQ(back.chainHi, 5u);
    EXPECT_TRUE(back.resume);
    EXPECT_EQ(back.snapshotDir, assign.snapshotDir);

    // A concatenation of two messages must not decode as one.
    expectFatalContaining(
        [&] { dist::decodeMsg<dist::AssignMsg>(blob + blob); },
        "trailing");
}

/**
 * One frame of every message type, in MsgType order, built from fixed
 * values.  The SHARD frame carries the report shard of a real chain
 * (distScenario's chain 0 over its whole horizon).
 */
std::string
pinnedFrames()
{
    dist::HelloMsg hello;
    hello.worker = 1;
    hello.fingerprint = 0x0123456789ABCDEFULL;
    dist::AssignMsg assign;
    assign.chainLo = 2;
    assign.chainHi = 5;
    assign.resume = true;
    assign.snapshotDir = "snapshots/worker1";
    dist::AssignOkMsg assign_ok;
    assign_ok.startSlot = 40;
    dist::StepMsg step;
    step.target = 80;
    dist::StepOkMsg step_ok;
    step_ok.slot = 80;
    step_ok.rotationDigest = 0xFEDCBA9876543210ULL;
    dist::SnapshotMsg snap;
    snap.slot = 80;

    ScenarioConfig cfg = distScenario();
    cfg.chains = 1;
    FogSystem sys(cfg);
    sys.run();
    dist::ShardMsg shard;
    shard.chain = 0;
    shard.blob = sys.shardBlob(0);

    std::string out;
    out += dist::encodeFrame(MsgType::Hello, dist::encodeMsg(hello));
    out += dist::encodeFrame(MsgType::Assign, dist::encodeMsg(assign));
    out += dist::encodeFrame(MsgType::AssignOk,
                             dist::encodeMsg(assign_ok));
    out += dist::encodeFrame(MsgType::Step, dist::encodeMsg(step));
    out += dist::encodeFrame(MsgType::StepOk, dist::encodeMsg(step_ok));
    out += dist::encodeFrame(MsgType::Snapshot, dist::encodeMsg(snap));
    out += dist::encodeFrame(MsgType::SnapshotOk, dist::encodeMsg(snap));
    out += dist::encodeFrame(MsgType::ShardRequest, {});
    out += dist::encodeFrame(MsgType::Shard, dist::encodeMsg(shard));
    out += dist::encodeFrame(MsgType::Shutdown, {});
    out += dist::encodeFrame(MsgType::Bye, {});
    return out;
}

/** The frames of @p bytes, decoded back to back. */
std::vector<Frame>
splitFrames(std::string_view bytes)
{
    std::vector<Frame> frames;
    while (!bytes.empty()) {
        std::size_t consumed = 0;
        frames.push_back(dist::decodeFrame(bytes, consumed));
        bytes.remove_prefix(consumed);
    }
    return frames;
}

// neofog-wire-v1 bytes are a compatibility contract between a
// coordinator and its workers: golden/wire-v1.frames holds one frame
// of each message type, and the encoder must reproduce them byte for
// byte.  A change that means to move them copies the frames this test
// writes next to the build's temporary files over the committed file
// and names it in CHANGES.md.
TEST(Wire, FramesArePinned)
{
    const std::string built = pinnedFrames();
    const std::string pinned_path =
        std::string(NEOFOG_GOLDEN_DIR) + "/wire-v1.frames";
    std::ifstream is(pinned_path, std::ios::binary);
    const std::string pinned{std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>()};
    if (built == pinned)
        return;

    const fs::path got = fs::temp_directory_path() / "wire-v1.frames";
    std::ofstream(got, std::ios::binary)
        .write(built.data(), static_cast<std::streamsize>(built.size()));
    ASSERT_TRUE(static_cast<bool>(is)) << "cannot read " << pinned_path;
    const std::vector<Frame> want = splitFrames(pinned);
    const std::vector<Frame> have = splitFrames(built);
    ASSERT_EQ(have.size(), want.size()) << "frames written to " << got;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(have[i].type, want[i].type) << "frame " << i;
        const snapshot::DiffResult diff = snapshot::diffSections(
            dist::msgTypeName(want[i].type), want[i].payload,
            have[i].payload);
        EXPECT_FALSE(diff.diverged)
            << diff.where << " " << diff.path << ": " << diff.detail;
    }
    FAIL() << "wire frames differ from " << pinned_path
           << "; this build's frames are in " << got;
}

TEST(Wire, CheckHelloRejectsEveryMismatch)
{
    dist::HelloMsg hello;
    hello.worker = 3;
    hello.fingerprint = 42;
    dist::checkHello(hello, 42, 3); // matching: no throw

    dist::HelloMsg skewed = hello;
    skewed.schema = "neofog-wire-v0";
    expectFatalContaining([&] { dist::checkHello(skewed, 42, 3); },
                          "schema");
    expectFatalContaining([&] { dist::checkHello(hello, 42, 2); },
                          "introduced itself");
    expectFatalContaining([&] { dist::checkHello(hello, 43, 3); },
                          "fingerprint");
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

TEST(Partition, RangesCoverDisjointlyAndBalance)
{
    for (const std::size_t chains : {1u, 3u, 7u, 64u, 100u}) {
        for (const std::size_t workers : {1u, 2u, 3u, 5u, 64u}) {
            const auto ranges = dist::partitionChains(chains, workers);
            ASSERT_EQ(ranges.size(), workers);
            // Contiguous, in order, covering [0, chains) exactly.
            EXPECT_EQ(ranges.front().lo, 0u);
            EXPECT_EQ(ranges.back().hi, chains);
            std::size_t lo = 0, hi = 0;
            for (const ChainRange &r : ranges) {
                EXPECT_EQ(r.lo, hi);
                EXPECT_LE(r.lo, r.hi);
                lo = std::min(lo, r.lo);
                hi = r.hi;
                // Balanced: sizes differ by at most one.
                EXPECT_LE(r.size(), chains / workers + 1);
            }
        }
    }
    EXPECT_THROW(dist::partitionChains(4, 0), FatalError);

    const auto ranges = dist::partitionChains(4, 2);
    EXPECT_TRUE(ranges[0].contains(1));
    EXPECT_FALSE(ranges[0].contains(2));
    EXPECT_TRUE(ranges[1].contains(2));
}

TEST(Partition, ClampWorkersMirrorsThreadPoolPolicy)
{
    const auto hw =
        static_cast<std::size_t>(ThreadPool::hardwareThreads());
    const std::size_t cap = std::max<std::size_t>(256, 2 * hw);

    // 0 = one worker per hardware thread (further capped at chains).
    EXPECT_EQ(dist::clampWorkers(0, 100000), hw);
    EXPECT_EQ(dist::clampWorkers(0, 1), 1u);
    // Negative warns and runs one worker.
    EXPECT_EQ(dist::clampWorkers(-5, 8), 1u);
    // Absurd requests clamp to max(256, 2 x hardware threads).
    EXPECT_EQ(dist::clampWorkers(1LL << 40, 1000000), cap);
    // More workers than chains buys nothing but fork overhead.
    EXPECT_EQ(dist::clampWorkers(8, 3), 3u);
    EXPECT_EQ(dist::clampWorkers(2, 3), 2u);
    // Zero chains still yields one worker (the fatal lives elsewhere).
    EXPECT_EQ(dist::clampWorkers(4, 0), 4u);
}

TEST(Partition, WorkerSnapshotDirLayout)
{
    EXPECT_EQ(dist::workerSnapshotDir("snaps", 0), "snaps/worker0");
    EXPECT_EQ(dist::workerSnapshotDir("/a/b", 12), "/a/b/worker12");
}

// ---------------------------------------------------------------------
// Rotation digest: the inter-chain NVD4Q state the wire cross-checks
// ---------------------------------------------------------------------

TEST(Partition, RotationDigestMatchesEngineState)
{
    // fig-13 leaves membershipUpdateInterval at 0; set it explicitly
    // so clone groups actually rotate (mux 3 > 1).
    ScenarioConfig cfg = distScenario();
    cfg.membershipUpdateInterval = 5 * cfg.slotInterval;

    const dist::ChainRange full{0, cfg.chains};
    FogSystem sys(cfg, 0, cfg.chains);
    EXPECT_EQ(sys.rotationDigest(),
              dist::expectedRotationDigest(cfg, full, 0));

    // Walk a barrier grid and cross-check at every stop, exactly as
    // the coordinator does: after slots [0, s) the digest is a pure
    // function of s and the scenario.
    std::int64_t at = 0;
    for (const std::int64_t barrier : {1, 5, 6, 40, 123, 300}) {
        sys.runWindow(at, barrier);
        at = barrier;
        EXPECT_EQ(sys.rotationDigest(),
                  dist::expectedRotationDigest(cfg, full, barrier))
            << "barrier " << barrier;
    }

    // A partition's digest covers exactly its chain slice.
    FogSystem part(cfg, 1, 3);
    part.runWindow(0, 40);
    EXPECT_EQ(part.rotationDigest(),
              dist::expectedRotationDigest(cfg, {1, 3}, 40));
    EXPECT_NE(part.rotationDigest(),
              dist::expectedRotationDigest(cfg, {0, 2}, 40));

    // Without a membership interval nothing rotates, and the digest
    // reduces to the chain-range fingerprint.
    ScenarioConfig still = distScenario();
    FogSystem frozen(still, 0, still.chains);
    frozen.runWindow(0, 100);
    EXPECT_EQ(frozen.rotationDigest(),
              dist::expectedRotationDigest(still, full, 100));
    EXPECT_EQ(dist::expectedRotationDigest(still, full, 100),
              dist::expectedRotationDigest(still, full, 0));
}

// ---------------------------------------------------------------------
// Partition windows merge to the full run (in-process, no fork)
// ---------------------------------------------------------------------

TEST(Partition, WindowedPartitionsMergeToFullRun)
{
    const ScenarioConfig cfg = distScenario();
    const SystemReport reference = FogSystem(cfg).run();
    const std::int64_t slots = cfg.slotCount();

    // Two partitions, stepped on an uneven barrier grid, shards
    // decoded from the wire blobs and merged in global chain order.
    FogSystem left(cfg, 0, 2);
    FogSystem right(cfg, 2, 3);
    std::int64_t at = 0;
    const std::vector<std::int64_t> barriers = {7, 100, 101, slots};
    for (const std::int64_t barrier : barriers) {
        left.runWindow(at, barrier);
        right.runWindow(at, barrier);
        at = barrier;
    }
    left.finalizeShards();
    right.finalizeShards();

    SystemReport merged;
    merged.idealPackages = cfg.idealPackages();
    for (FogSystem *part : {&left, &right}) {
        for (std::size_t i = 0; i < part->chainHi() - part->chainLo();
             ++i) {
            SystemReport shard;
            const std::string blob = part->shardBlob(i);
            snapshot::InArchive ar{std::string_view(blob)};
            ar.pushScope("shard");
            shard.serialize(ar);
            ar.popScope();
            EXPECT_TRUE(ar.atEnd());
            merged.merge(shard);
        }
    }
    EXPECT_EQ(merged, reference);
}

TEST(Partition, PartitionCtorRejectsBadRanges)
{
    const ScenarioConfig cfg = distScenario();
    EXPECT_THROW(FogSystem(cfg, 2, 2), FatalError); // empty
    EXPECT_THROW(FogSystem(cfg, 2, 1), FatalError); // inverted
    EXPECT_THROW(FogSystem(cfg, 0, 4), FatalError); // past the end
}

// ---------------------------------------------------------------------
// The tentpole: distributed == single-process, bit for bit
// ---------------------------------------------------------------------

TEST(Distributed, AnyWorkerCountMatchesSingleProcess)
{
    const ScenarioConfig cfg = distScenario();
    const SystemReport reference = FogSystem(cfg).run();

    for (const long long workers : {1LL, 2LL, 3LL}) {
        dist::DistOptions opt;
        opt.workersRequested = workers;
        const dist::DistResult res = dist::runDistributed(cfg, opt);
        EXPECT_EQ(res.workers, static_cast<std::size_t>(workers));
        EXPECT_EQ(res.respawns, 0u);
        EXPECT_EQ(res.report, reference) << "workers " << workers;
    }

    // Requests beyond the chain count clamp without changing results.
    dist::DistOptions opt;
    opt.workersRequested = 64;
    const dist::DistResult res = dist::runDistributed(cfg, opt);
    EXPECT_EQ(res.workers, 3u);
    EXPECT_EQ(res.report, reference);
}

TEST(Distributed, WorkersComposeWithThreads)
{
    const SystemReport reference = FogSystem(distScenario()).run();

    // Each worker runs its partition under its own thread pool; the
    // combination must not perturb a single report bit.
    dist::DistOptions opt;
    opt.workersRequested = 2;
    const dist::DistResult res =
        dist::runDistributed(distScenario(2), opt);
    EXPECT_EQ(res.report, reference);
}

TEST(Distributed, CheckpointedRunResumesBitIdentically)
{
    const ScratchDir dir("resume");
    const ScenarioConfig cfg = distScenario();
    const SystemReport reference = FogSystem(cfg).run();

    // A checkpointing distributed run: barriers every 70 slots.
    dist::DistOptions opt;
    opt.workersRequested = 2;
    opt.snapshotEvery = 70;
    opt.snapshotDir = dir.path();
    EXPECT_EQ(dist::runDistributed(cfg, opt).report, reference);
    EXPECT_TRUE(fs::is_directory(dir.path() + "/worker0"));
    EXPECT_TRUE(fs::is_directory(dir.path() + "/worker1"));

    // Resume from the partitioned directory: the scenario comes from
    // worker 0's snapshot, the worker count from the layout.
    dist::DistOptions again;
    again.workersRequested = 0; // rediscover
    again.snapshotDir = dir.path();
    const dist::DistResult resumed =
        dist::resumeDistributed(distScenario(), again);
    EXPECT_EQ(resumed.workers, 2u);
    EXPECT_EQ(resumed.report, reference);

    // A mismatched worker count is refused, not silently repartitioned
    // (each worker's snapshot covers exactly its own chain slice).
    dist::DistOptions wrong;
    wrong.workersRequested = 3;
    wrong.snapshotDir = dir.path();
    expectFatalContaining(
        [&] { dist::resumeDistributed(distScenario(), wrong); },
        "worker partitions");
}

TEST(Distributed, RejectsBadOptions)
{
    const ScenarioConfig cfg = distScenario();
    dist::DistOptions opt;
    opt.snapshotEvery = -1;
    EXPECT_THROW(dist::runDistributed(cfg, opt), FatalError);

    opt.snapshotEvery = 0;
    opt.snapshotDir.clear();
    EXPECT_THROW(dist::runDistributed(cfg, opt), FatalError);

    ScenarioConfig chainless = cfg;
    chainless.chains = 0;
    EXPECT_THROW(dist::runDistributed(chainless, dist::DistOptions{}),
                 FatalError);

    // Resuming from a directory that was never checkpointed into.
    const ScratchDir empty("no_snapshots");
    dist::DistOptions resume;
    resume.snapshotDir = empty.path();
    EXPECT_THROW(dist::resumeDistributed(cfg, resume), FatalError);
}

} // namespace
} // namespace neofog
