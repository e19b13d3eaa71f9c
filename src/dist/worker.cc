#include "dist/worker.hh"

#include <memory>
#include <string>

#include "dist/wire.hh"
#include "fog/fog_system.hh"
#include "fog/snapshot_io.hh"
#include "sim/logging.hh"
#include "snapshot/snapshot.hh"

namespace neofog::dist {

namespace {

/**
 * Build the partition system an ASSIGN describes: a resume assignment
 * continues from the newest valid snapshot in the worker's directory
 * (a respawned replacement after a kill), falling back to a fresh
 * start when none was written yet.
 */
std::unique_ptr<FogSystem>
buildPartition(const ScenarioConfig &cfg, const AssignMsg &assign)
{
    const auto lo = static_cast<std::size_t>(assign.chainLo);
    const auto hi = static_cast<std::size_t>(assign.chainHi);
    if (assign.resume) {
        if (const auto latest =
                snapshot::readLatestSnapshot(assign.snapshotDir))
            return FogSystem::resumePartition(*latest, cfg, lo, hi);
    }
    return std::make_unique<FogSystem>(cfg, lo, hi);
}

int
serve(WireConn &conn, const ScenarioConfig &cfg,
      std::size_t worker_index)
{
    HelloMsg hello;
    hello.worker = worker_index;
    hello.fingerprint = scenarioFingerprint(cfg);
    conn.send(MsgType::Hello, encodeMsg(hello));

    const auto assign =
        decodeMsg<AssignMsg>(conn.expect(MsgType::Assign).payload);
    if (assign.chainLo >= assign.chainHi)
        fatal("worker ", worker_index, " assigned empty chain range [",
              assign.chainLo, ", ", assign.chainHi, ")");

    // The coordinator drives every checkpoint explicitly (SNAPSHOT at
    // its barriers), so the slot loop's own trigger stays disabled;
    // saveSnapshot still writes into this worker's private directory.
    ScenarioConfig local = cfg;
    local.snapshot.everySlots = 0;
    local.snapshot.dir = assign.snapshotDir;

    std::unique_ptr<FogSystem> system = buildPartition(local, assign);
    std::int64_t cur = system->resumeSlot();

    AssignOkMsg ok;
    ok.startSlot = cur;
    conn.send(MsgType::AssignOk, encodeMsg(ok));

    for (;;) {
        const Frame frame = conn.recv();
        switch (frame.type) {
          case MsgType::Step: {
            // A target at or behind the current slot is a no-op: a
            // worker resumed from a late snapshot simply waits while
            // the barrier schedule catches up to it.
            const auto step = decodeMsg<StepMsg>(frame.payload);
            if (step.target > cur) {
                system->runWindow(cur, step.target);
                cur = step.target;
            }
            StepOkMsg done;
            done.slot = cur;
            done.rotationDigest = system->rotationDigest();
            conn.send(MsgType::StepOk, encodeMsg(done));
            break;
          }
          case MsgType::Snapshot: {
            const auto req = decodeMsg<SnapshotMsg>(frame.payload);
            if (req.slot != cur)
                fatal("worker ", worker_index, " at slot ", cur,
                      " told to checkpoint slot ", req.slot);
            system->saveSnapshot(cur);
            SnapshotMsg done;
            done.slot = cur;
            conn.send(MsgType::SnapshotOk, encodeMsg(done));
            break;
          }
          case MsgType::ShardRequest: {
            system->finalizeShards();
            const std::size_t lo = system->chainLo();
            const std::size_t n = system->chainHi() - lo;
            for (std::size_t i = 0; i < n; ++i) {
                ShardMsg shard;
                shard.chain = lo + i;
                shard.blob = system->shardBlob(i);
                conn.send(MsgType::Shard, encodeMsg(std::move(shard)));
            }
            break;
          }
          case MsgType::Shutdown:
            conn.send(MsgType::Bye);
            return 0;
          default:
            fatal("worker ", worker_index,
                  " received unexpected ", msgTypeName(frame.type));
        }
    }
}

} // namespace

int
runWorkerLoop(int fd, const ScenarioConfig &cfg,
              std::size_t worker_index)
{
    WireConn conn(fd);
    try {
        return serve(conn, cfg, worker_index);
    } catch (const WireClosed &) {
        // Coordinator gone: nothing to report to, exit quietly.  The
        // snapshot directory keeps whatever progress was checkpointed.
        return 1;
    } catch (const FatalError &err) {
        warn("worker ", worker_index, ": ", err.what());
        return 2;
    }
}

} // namespace neofog::dist
