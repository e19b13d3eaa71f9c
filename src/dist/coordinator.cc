#include "dist/coordinator.hh"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "balance/policy_registry.hh"
#include "dist/partition.hh"
#include "dist/wire.hh"
#include "dist/worker.hh"
#include "fog/snapshot_io.hh"
#include "sim/logging.hh"
#include "snapshot/archive.hh"
#include "snapshot/snapshot.hh"

namespace neofog::dist {

namespace {

namespace fs = std::filesystem;

/** One live worker process, as the coordinator sees it. */
struct WorkerProc
{
    pid_t pid = -1;
    std::unique_ptr<WireConn> conn;
    ChainRange range;
    /** Last slot barrier this worker is known to stand at. */
    std::int64_t slot = 0;
};

/**
 * The coordinator side of one distributed run: spawn, drive barriers,
 * recover deaths, collect shards, shut down.
 */
class Coordinator
{
  public:
    Coordinator(const ScenarioConfig &cfg, const DistOptions &opt,
                std::size_t workers)
        : _cfg(cfg), _opt(opt),
          _fingerprint(scenarioFingerprint(cfg)),
          _ranges(partitionChains(cfg.chains, workers)),
          _workers(workers)
    {}

    DistResult
    run()
    {
        // Create every worker's snapshot directory up front when
        // checkpointing: resumeDistributed() rediscovers the worker
        // count from the worker<k> layout, which must reflect ALL
        // partitions even if the coordinator dies before a slow
        // worker lands its first checkpoint (a worker with an empty
        // directory simply resumes from a fresh start).
        if (_opt.snapshotEvery > 0)
            for (std::size_t w = 0; w < _workers.size(); ++w)
                fs::create_directories(
                    workerSnapshotDir(_opt.snapshotDir, w));

        for (std::size_t w = 0; w < _workers.size(); ++w)
            spawn(w, _opt.resume);

        const std::int64_t horizon = _cfg.slotCount();
        // The same grid the single-process slot loop checkpoints on:
        // every multiple of snapshotEvery strictly inside the horizon
        // is a checkpoint barrier; the horizon itself is the final
        // barrier (stepped, never checkpointed).
        std::int64_t target = 0;
        while (target < horizon) {
            target = _opt.snapshotEvery > 0
                ? std::min<std::int64_t>(
                      target + _opt.snapshotEvery, horizon)
                : horizon;
            barrier(target);
            if (_opt.snapshotEvery > 0 && target < horizon)
                checkpoint(target);
        }

        DistResult result;
        result.report = collectAndMerge();
        result.config = _cfg;
        result.workers = _workers.size();
        result.respawns = _respawns;
        shutdown();
        return result;
    }

  private:
    /**
     * Fork worker @p w and complete HELLO/ASSIGN.  The child inherits
     * every fd the coordinator holds; it closes all of them except
     * its own socket end, so a dead coordinator reads as EOF to every
     * worker and vice versa.
     */
    void
    spawn(std::size_t w, bool resume)
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            fatal("socketpair failed: worker ", w);
        const pid_t pid = ::fork();
        if (pid < 0)
            fatal("fork failed: worker ", w);
        if (pid == 0) {
            // Child: drop every coordinator-side fd (earlier workers'
            // sockets included), serve the partition, and _Exit —
            // never unwind into the parent's atexit/destructor state.
            ::close(fds[0]);
            for (const WorkerProc &other : _workers)
                if (other.conn)
                    ::close(other.conn->fd());
            std::_Exit(runWorkerLoop(fds[1], _cfg, w));
        }
        ::close(fds[1]);
        WorkerProc &proc = _workers[w];
        proc.pid = pid;
        proc.conn = std::make_unique<WireConn>(fds[0]);
        proc.range = _ranges[w];
        proc.slot = 0;

        const auto hello = decodeMsg<HelloMsg>(
            proc.conn->expect(MsgType::Hello).payload);
        checkHello(hello, _fingerprint, w);

        AssignMsg assign;
        assign.chainLo = proc.range.lo;
        assign.chainHi = proc.range.hi;
        assign.resume = resume;
        assign.snapshotDir = workerSnapshotDir(_opt.snapshotDir, w);
        proc.conn->send(MsgType::Assign, encodeMsg(assign));
        const auto ok = decodeMsg<AssignOkMsg>(
            proc.conn->expect(MsgType::AssignOk).payload);
        proc.slot = ok.startSlot;
    }

    /**
     * Replace a dead worker: reap it, respawn in resume mode (its
     * snapshot directory holds its last checkpoint), and step it back
     * to @p target.  Bounded by the respawn budget.
     */
    void
    recover(std::size_t w, std::int64_t target)
    {
        if (++_respawns > static_cast<std::size_t>(
                std::max(0, _opt.maxRespawns)))
            fatal("worker ", w, " died and the respawn budget of ",
                  _opt.maxRespawns, " is exhausted — giving up");
        WorkerProc &proc = _workers[w];
        warn("worker ", w, " (pid ", proc.pid,
             ") died; respawning and resuming from ",
             workerSnapshotDir(_opt.snapshotDir, w));
        ::kill(proc.pid, SIGKILL);
        int status = 0;
        ::waitpid(proc.pid, &status, 0);
        proc.conn.reset();
        spawn(w, true);
        stepWorker(w, target);
    }

    /** Verify a STEP_OK: right slot, rotations in phase. */
    void
    checkStepOk(std::size_t w, const StepOkMsg &ok,
                std::int64_t expected)
    {
        const WorkerProc &proc = _workers[w];
        if (ok.slot != expected)
            fatal("worker ", w, " stepped to slot ", ok.slot,
                  ", barrier expected ", expected);
        const std::uint64_t want =
            expectedRotationDigest(_cfg, proc.range, expected);
        if (ok.rotationDigest != want)
            fatal("worker ", w, " NVD4Q rotation digest diverged at "
                  "slot ", expected,
                  " — clone groups out of phase, refusing to merge");
    }

    /** Synchronous step of one worker (the recovery path). */
    void
    stepWorker(std::size_t w, std::int64_t target)
    {
        for (;;) {
            WorkerProc &proc = _workers[w];
            const std::int64_t expected =
                std::max(target, proc.slot);
            try {
                StepMsg step;
                step.target = target;
                proc.conn->send(MsgType::Step, encodeMsg(step));
                const auto ok = decodeMsg<StepOkMsg>(
                    proc.conn->expect(MsgType::StepOk).payload);
                checkStepOk(w, ok, expected);
                proc.slot = expected;
                return;
            } catch (const WireClosed &) {
                recover(w, target);
                return;
            }
        }
    }

    /**
     * Step every worker to @p target: broadcast the STEPs first so the
     * partitions run concurrently, then collect the acks.  A death in
     * either phase is recovered synchronously.
     */
    void
    barrier(std::int64_t target)
    {
        std::vector<bool> dead(_workers.size(), false);
        for (std::size_t w = 0; w < _workers.size(); ++w) {
            try {
                StepMsg step;
                step.target = target;
                _workers[w].conn->send(MsgType::Step, encodeMsg(step));
            } catch (const WireClosed &) {
                dead[w] = true;
            }
        }
        for (std::size_t w = 0; w < _workers.size(); ++w) {
            if (dead[w]) {
                recover(w, target);
                continue;
            }
            const std::int64_t expected =
                std::max(target, _workers[w].slot);
            try {
                const auto ok = decodeMsg<StepOkMsg>(
                    _workers[w].conn->expect(MsgType::StepOk).payload);
                checkStepOk(w, ok, expected);
                _workers[w].slot = expected;
            } catch (const WireClosed &) {
                recover(w, target);
            }
        }
    }

    /**
     * Have every worker standing exactly at @p slot checkpoint it:
     * broadcast the SNAPSHOTs first so the workers save concurrently,
     * then collect the acks, as barrier() does.  A death in either
     * phase is recovered synchronously: recovery re-runs the worker to
     * the barrier, and the missed checkpoint only costs recompute on a
     * later death.
     */
    void
    checkpoint(std::int64_t slot)
    {
        // A worker resumed ahead of this barrier already holds a newer
        // checkpoint; asking it to archive an older slot would be
        // wrong, so it is skipped until barriers pass it.
        std::vector<bool> asked(_workers.size(), false);
        std::vector<bool> dead(_workers.size(), false);
        SnapshotMsg req;
        req.slot = slot;
        const std::string payload = encodeMsg(req);
        for (std::size_t w = 0; w < _workers.size(); ++w) {
            if (_workers[w].slot != slot)
                continue;
            asked[w] = true;
            try {
                _workers[w].conn->send(MsgType::Snapshot, payload);
            } catch (const WireClosed &) {
                dead[w] = true;
            }
        }
        for (std::size_t w = 0; w < _workers.size(); ++w) {
            if (!asked[w])
                continue;
            if (dead[w]) {
                recover(w, slot);
                continue;
            }
            try {
                const auto ok = decodeMsg<SnapshotMsg>(
                    _workers[w].conn->expect(
                        MsgType::SnapshotOk).payload);
                if (ok.slot != slot)
                    fatal("worker ", w, " checkpointed slot ",
                          ok.slot, ", asked for ", slot);
            } catch (const WireClosed &) {
                recover(w, slot);
            }
        }
    }

    /**
     * Collect every chain's report shard and fold them in global
     * chain order — the exact merge the single-process run() does,
     * so the totals associate identically for any worker count.
     */
    SystemReport
    collectAndMerge()
    {
        const std::int64_t horizon = _cfg.slotCount();
        std::vector<SystemReport> shards(_cfg.chains);
        for (std::size_t w = 0; w < _workers.size(); ++w) {
            for (;;) {
                try {
                    collectWorkerShards(w, shards);
                    break;
                } catch (const WireClosed &) {
                    recover(w, horizon);
                }
            }
        }
        SystemReport report;
        report.idealPackages = _cfg.idealPackages();
        for (const SystemReport &shard : shards)
            report.merge(shard);
        return report;
    }

    /** One worker's SHARD_REQUEST round trip. */
    void
    collectWorkerShards(std::size_t w, std::vector<SystemReport> &out)
    {
        WorkerProc &proc = _workers[w];
        proc.conn->send(MsgType::ShardRequest);
        for (std::size_t c = proc.range.lo; c < proc.range.hi; ++c) {
            const auto shard = decodeMsg<ShardMsg>(
                proc.conn->expect(MsgType::Shard).payload);
            if (shard.chain != c)
                fatal("worker ", w, " sent shard for chain ",
                      shard.chain, ", expected chain ", c);
            snapshot::InArchive ar(shard.blob);
            ar.pushScope("shard");
            out[c].serialize(ar);
            ar.popScope();
            if (!ar.atEnd())
                fatal("worker ", w, " chain ", c,
                      " shard has trailing records");
        }
    }

    /** Orderly SHUTDOWN/BYE and reap; a dead worker is already gone. */
    void
    shutdown()
    {
        for (WorkerProc &proc : _workers) {
            if (!proc.conn)
                continue;
            try {
                proc.conn->send(MsgType::Shutdown);
                proc.conn->expect(MsgType::Bye);
            } catch (const WireClosed &) {
                // Exited before the BYE flushed; the reap below
                // still collects it.
            }
            int status = 0;
            ::waitpid(proc.pid, &status, 0);
            proc.conn.reset();
        }
    }

    ScenarioConfig _cfg;
    DistOptions _opt;
    std::uint64_t _fingerprint = 0;
    std::vector<ChainRange> _ranges;
    std::vector<WorkerProc> _workers;
    std::size_t _respawns = 0;
};

/** Shared argument validation of both entry points. */
void
validateOptions(const DistOptions &opt)
{
    if (opt.snapshotEvery < 0)
        fatal("--snapshot-every must be >= 0");
    if (opt.snapshotDir.empty())
        fatal("distributed runs need a snapshot directory");
}

} // namespace

DistResult
runDistributed(const ScenarioConfig &cfg, const DistOptions &opt)
{
    validateOptions(opt);
    ScenarioConfig canonical = cfg;
    // Canonicalize before fingerprinting/forking so the HELLO check
    // compares like with like and bad specs fail before any fork.
    canonical.balancerPolicy =
        PolicyRegistry::instance().canonicalSpec(cfg.balancerPolicy);
    if (canonical.chains == 0)
        fatal("scenario needs at least one chain");

    const std::size_t workers =
        clampWorkers(opt.workersRequested, canonical.chains);
    Coordinator coordinator(canonical, opt, workers);
    return coordinator.run();
}

DistResult
resumeDistributed(const ScenarioConfig &host, const DistOptions &opt)
{
    validateOptions(opt);

    // The archived scenario lives in every worker's checkpoints;
    // worker 0 always exists and always owns a non-empty range.  Only
    // the scenario is kept: the snapshot is released before any fork.
    ScenarioConfig cfg = [&] {
        const auto latest = snapshot::readLatestSnapshot(
            workerSnapshotDir(opt.snapshotDir, 0));
        if (!latest)
            fatal("no valid worker snapshot under ", opt.snapshotDir,
                  " — nothing to resume (expected ",
                  workerSnapshotDir(opt.snapshotDir, 0),
                  "/snap-*.nfsnap)");
        return archivedScenario(*latest);
    }();
    cfg.threads = host.threads;

    // The partition layout is baked into the worker directories; the
    // run must resume at the same worker count it checkpointed at.
    std::size_t found = 0;
    while (fs::is_directory(
               workerSnapshotDir(opt.snapshotDir, found)))
        ++found;
    if (found == 0)
        fatal("no worker directories under ", opt.snapshotDir);
    const std::size_t expected =
        clampWorkers(opt.workersRequested, cfg.chains);
    if (opt.workersRequested != 0 && expected != found)
        fatal("snapshot directory ", opt.snapshotDir, " holds ",
              found, " worker partitions but --workers asked for ",
              expected, " — resume with --workers ", found,
              " (or 0 to rediscover)");

    DistOptions resumed = opt;
    resumed.workersRequested = static_cast<long long>(found);
    resumed.resume = true;
    return runDistributed(cfg, resumed);
}

} // namespace neofog::dist
