#include "workloads.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "balance/policy_registry.hh"
#include "bench_util.hh"
#include "dist/coordinator.hh"
#include "dist/partition.hh"
#include "dist/wire.hh"
#include "energy/power_trace.hh"
#include "energy/trace_cache.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/logging.hh"
#include "sim/report_io.hh"
#include "sim/rng.hh"
#include "snapshot/archive.hh"
#include "snapshot/snapshot.hh"

namespace neofog::perfbench {

namespace fs = std::filesystem;

namespace {

/** Horizon of the rain workloads: 150 slots, 30 simulated minutes. */
constexpr std::int64_t kShortSlots = 150;
/** Rain fronts (systems) per repetition of the rain workloads. */
constexpr std::uint64_t kRainFronts = 4;
/** checkpoint-workers cadence: rounds after slots 40, 80 and 120. */
constexpr std::int64_t kCheckpointEvery = 40;
/** Pool threads of rain-fleet's traced pass, before the nproc cap. */
constexpr unsigned kPoolThreads = 4;
/** Worker processes of checkpoint-workers, before the nproc cap. */
constexpr unsigned kWorkers = 2;
/** balanceInto calls per probed policy (enough for a p99). */
constexpr int kBalanceProbes = 2000;
/** Chains per slot whose node traces the integrate probe samples. */
constexpr std::size_t kIntegrateChains = 100;
/** Least host time between two calibration samples (~1% duty). */
constexpr std::int64_t kCalibrationSpacingNs = 100'000'000;
/** Rounds of one calibration sample (about 0.65 ms). */
constexpr int kCalibrationRounds = 200000;
/**
 * One calibration sample's time on the reference host (4-vCPU
 * Sapphire Rapids KVM guest, Release build); it only sets the scale of
 * the calibrated end-to-end times.
 */
constexpr double kCalibrationNominalS = 0.00065;

double
toSeconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    NEOFOG_ASSERT(!v.empty(), "median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/** Scenario seed @p k of workload seed @p seed (splitmix64). */
std::uint64_t
scenarioSeed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed + (k + 1) * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** One repetition's scenarios and the passes the workload adds. */
struct Plan
{
    std::vector<ScenarioConfig> systems;
    /**
     * checkpoint-workers: worker processes of runDistributed and
     * resumeDistributed; 0 for the in-process workloads.
     */
    unsigned workers = 0;
    /**
     * rain-fleet: pool threads of a traced pass of runWindow(s, s + 1)
     * per slot; 0 for no such pass.
     */
    unsigned poolThreads = 0;
};

/**
 * A rain scenario over kShortSlots.  One rain front (a seed) covers a
 * whole system, and a 30-minute front either holds a bright spell or
 * not, which moves the work per node-slot by ~10%; the rain workloads
 * therefore split their fleet over kRainFronts systems with distinct
 * scenario seeds, so one workload seed's weather does not set the
 * measured speed.
 */
ScenarioConfig
shortRain(const Options &opt, int multiplexing, std::size_t chains,
          std::uint64_t front)
{
    ScenarioConfig cfg =
        presets::fig13(presets::fiosNeofog(), multiplexing);
    cfg.chains = chains;
    cfg.horizon = kShortSlots * cfg.slotInterval;
    cfg.seed = scenarioSeed(opt.seed, front);
    return cfg;
}

Plan
makePlan(const Options &opt)
{
    Plan plan;
    const std::string &w = opt.workload;
    // Never more threads or workers than the CPUs this process may use.
    const unsigned cpus = onlineCpus();
    if (w == "rain-fleet") {
        for (std::uint64_t f = 0; f < kRainFronts; ++f)
            plan.systems.push_back(shortRain(opt, 1, 500, f));
        plan.poolThreads = std::min(kPoolThreads, cpus);
    } else if (w == "forest-sweep") {
        // The three compared systems see identical traces per
        // (profile, seed), as in the fig-10 harness.
        const int profiles = 5;
        const int seeds = 2;
        for (const auto &sut : {presets::nosVp(),
                                presets::nosNvpBaseline(),
                                presets::fiosNeofog()}) {
            for (int p = 0; p < profiles; ++p) {
                for (int k = 0; k < seeds; ++k) {
                    ScenarioConfig cfg = presets::fig10(sut, p);
                    cfg.seed = scenarioSeed(
                        opt.seed, static_cast<std::uint64_t>(
                                      p * seeds + k));
                    plan.systems.push_back(cfg);
                }
            }
        }
    } else if (w == "relay-mux") {
        for (std::uint64_t f = 0; f < kRainFronts; ++f) {
            ScenarioConfig cfg = shortRain(opt, 3, 25, f);
            cfg.nodesPerChain = 40;
            cfg.hopByHopRelay = true;
            cfg.realTimeRequestChance = 0.05;
            cfg.membershipUpdateInterval = 10 * kMin;
            plan.systems.push_back(cfg);
        }
    } else if (w == "checkpoint-workers") {
        for (std::uint64_t f = 0; f < kRainFronts; ++f)
            plan.systems.push_back(shortRain(opt, 1, 125, f));
        plan.workers = std::min(kWorkers, cpus);
    } else {
        fatal("unknown workload '", w, "'");
    }
    return plan;
}

std::uint64_t
logicalNodeSlots(const ScenarioConfig &cfg)
{
    return static_cast<std::uint64_t>(cfg.chains * cfg.nodesPerChain) *
           static_cast<std::uint64_t>(cfg.slotCount());
}

std::uint64_t
physicalNodes(const ScenarioConfig &cfg)
{
    return cfg.chains * cfg.nodesPerChain *
           static_cast<std::size_t>(cfg.multiplexing);
}

/** The run's final output: the report as its JSON document. */
std::string
reportJson(const SystemReport &report)
{
    std::ostringstream os;
    report.toJson(os);
    return os.str();
}

/** Largest resident set of this process and its waited-for workers. */
double
peakRssMb()
{
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(
               std::max(self.ru_maxrss, children.ru_maxrss)) *
           1024.0 / 1e6;
}

/** A directory tree removed on scope exit, on failure paths too. */
class ScratchDir
{
  public:
    explicit ScratchDir(std::string path) : _path(std::move(path))
    {
        fs::remove_all(_path);
        fs::create_directories(_path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(_path, ec);
    }

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

/**
 * Pins the calling thread to one CPU at a time and restores its
 * affinity mask on destruction.  Every measured repetition runs on one
 * CPU, the k-th allowed CPU for repetition k.  A shared host steals
 * time from a VM in proportion to the virtual CPUs it keeps busy, and
 * a per-slot barrier waits for the most-stolen one: rain-fleet on 4
 * threads read 0.95-5.15 M node-slots/s across minutes on a 4-vCPU VM,
 * on one rotating CPU 1.19-1.33 M.  One CPU at a time also evens out
 * each CPU's own speed flips (states up to ~1.7x apart every few
 * seconds), as the median samples every CPU alike.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&_allowed);
        if (sched_getaffinity(0, sizeof(_allowed), &_allowed) != 0)
            fatal("sched_getaffinity failed");
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &_allowed))
                _cpus.push_back(c);
        }
    }

    ~CpuRotation() { sched_setaffinity(0, sizeof(_allowed), &_allowed); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    pin(std::size_t k) const
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(_cpus[k % _cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t _allowed;
    std::vector<int> _cpus;
};

/**
 * The host's speed, sampled with a fixed kernel between pieces of
 * measured work.  On a shared VM host the simulator's speed drifts by
 * up to 2x, over seconds and over minutes, with what other tenants run
 * on the cores and caches it shares, so raw times of one workload
 * spread wider across runs than a useful regression bound.  A sample
 * times a fixed integer mix of four independent streams, which slows
 * with the execution throughput the host leaves this CPU.  It tracks
 * the simulator's drift only in part, but swings less than the
 * simulator does, so it does not over-correct: over six seeds in a
 * noisy period on a 4-vCPU VM, wall_s spread (interquartile range
 * over median) 0.04-0.16 calibrated against 0.10-0.23 on the host
 * clock, on every workload.  (A walk over a 1 MiB cycle tracked the
 * small systems better but swung up to twice as far as rain-fleet's
 * fleet, and over-corrected it.)  The kernel is fixed here, so a
 * change to the simulator moves the ratio but not the kernel.  The
 * end-to-end times are scaled by
 * kCalibrationNominalS over the run's median sample, so they read as
 * seconds on a host where one sample takes kCalibrationNominalS.
 */
class Calibration
{
  public:
    /** Take a sample unless one was taken in the last spacing. */
    void
    sampleIfDue()
    {
        const std::int64_t start = nowNs();
        if (!_samples.empty() && start - _last < kCalibrationSpacingNs)
            return;
        std::uint64_t a = 1, b = 2, c = 3, d = 4;
        for (int i = 0; i < kCalibrationRounds; ++i) {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b ^= b << 13;
            b ^= b >> 7;
            b ^= b << 17;
            c = c * 6364136223846793005ULL + 1442695040888963407ULL;
            d += c ^ b;
        }
        _sink = a + b + d;
        _last = nowNs();
        _samples.push_back(toSeconds(_last - start));
    }

    /** Calibrated seconds per host second over the samples so far. */
    double
    scale() const
    {
        return kCalibrationNominalS / median(_samples);
    }

    /** Median sample time, s. */
    double medianSample() const { return median(_samples); }

  private:
    std::vector<double> _samples;
    std::int64_t _last = 0;
    /** Keeps the loop's result alive past the optimizer. */
    volatile std::uint64_t _sink = 0;
};

// ------------------------------------------------- measured repetitions

struct RepTimes
{
    double setup = 0.0;  ///< FogSystem construction, summed
    double run = 0.0;    ///< node-slot stepping (run / runDistributed)
    double wall = 0.0;   ///< start until the final report is written
    double resume = 0.0; ///< resumeDistributed (distributed only)
    std::uint64_t checkpointBytes = 0;
};

/**
 * Calibration samples, if @p calibration is given, fall between
 * systems, outside every time.
 */
RepTimes
runInProcess(const std::vector<ScenarioConfig> &systems,
             Calibration *calibration, std::vector<SystemReport> &out)
{
    RepTimes t;
    for (const ScenarioConfig &cfg : systems) {
        if (calibration)
            calibration->sampleIfDue();
        const std::int64_t a = nowNs();
        FogSystem system(cfg);
        const std::int64_t b = nowNs();
        out.push_back(system.run());
        const std::int64_t c = nowNs();
        (void)reportJson(out.back());
        t.setup += toSeconds(b - a);
        t.run += toSeconds(c - b);
        t.wall += toSeconds(nowNs() - a);
    }
    return t;
}

/** Bytes of the newest checkpoint round, summed over the workers. */
std::uint64_t
newestRoundBytes(const std::string &base, std::size_t workers)
{
    std::uint64_t bytes = 0;
    for (std::size_t w = 0; w < workers; ++w) {
        const std::string file =
            snapshot::latestSnapshot(dist::workerSnapshotDir(base, w));
        if (file.empty())
            fatal("worker ", w, " left no checkpoint under ", base);
        bytes += fs::file_size(file);
    }
    return bytes;
}

/**
 * Each system through runDistributed and then resumeDistributed from
 * its newest checkpoint round; two reports per system.  Calibration
 * samples, if @p calibration is given, fall between those calls,
 * outside every time.
 */
RepTimes
runDistributedRep(const std::vector<ScenarioConfig> &systems,
                  unsigned workers, const std::string &workDir, int rep,
                  Calibration *calibration,
                  std::vector<SystemReport> &out)
{
    RepTimes t;
    for (std::size_t k = 0; k < systems.size(); ++k) {
        const ScenarioConfig &cfg = systems[k];
        const ScratchDir dir(workDir + "/ckpt-" + std::to_string(rep) +
                             "-" + std::to_string(k));
        dist::DistOptions dopt;
        dopt.workersRequested = workers;
        dopt.snapshotEvery = kCheckpointEvery;
        dopt.snapshotDir = dir.path();

        if (calibration)
            calibration->sampleIfDue();
        const std::int64_t a = nowNs();
        const dist::DistResult ran = dist::runDistributed(cfg, dopt);
        const std::int64_t b = nowNs();
        if (calibration)
            calibration->sampleIfDue();
        const std::int64_t c = nowNs();
        const dist::DistResult resumed =
            dist::resumeDistributed(cfg, dopt);
        const std::int64_t d = nowNs();
        (void)reportJson(resumed.report);
        t.wall += toSeconds(b - a) + toSeconds(nowNs() - c);
        t.run += toSeconds(b - a);
        t.resume += toSeconds(d - c);
        t.checkpointBytes += newestRoundBytes(dir.path(), ran.workers);
        out.push_back(ran.report);
        out.push_back(resumed.report);
    }
    // The workers build their partitions out of sight; time the same
    // construction here, outside wall.
    for (const ScenarioConfig &cfg : systems) {
        for (const dist::ChainRange &r :
             dist::partitionChains(cfg.chains, workers)) {
            const std::int64_t a = nowNs();
            const FogSystem system(cfg, r.lo, r.hi);
            t.setup += toSeconds(nowNs() - a);
        }
    }
    return t;
}

// ------------------------------------------------------- serial passes

/** Figures of a serial pass beyond its reports. */
struct SerialStats
{
    std::uint64_t integrateCalls = 0; ///< one per scheduled node-slot
    std::uint64_t balanceCalls = 0;   ///< chain-slots of non-none policies
    std::uint64_t shardBytes = 0;
    std::uint64_t physicalNodes = 0;
};

/**
 * Probe: every physical node's own trace integrated over the slot
 * window, timed as one batch (per-call clock reads would cost more
 * than the cheapest integrals).  Const calls on immutable traces.
 */
void
probeIntegrate(const ChainEngine &engine, Tick from, Tick to,
               Tracer &tr)
{
    const auto &nodes = engine.nodes();
    double joules = 0.0;
    {
        const auto s = tr.span("energy.integrate",
                               static_cast<std::int64_t>(nodes.size()));
        for (const auto &node : nodes)
            joules += node->trace().integrate(from, to).joules();
    }
    if (!std::isfinite(joules) || joules < 0.0)
        fatal("income over [", from, ", ", to, ") is ", joules, " J");
}

SystemReport
mergeShards(const std::vector<std::unique_ptr<ChainEngine>> &chains,
            const ScenarioConfig &cfg, Tracer &tr, int part = -1)
{
    SystemReport report;
    report.idealPackages = cfg.idealPackages();
    for (const auto &engine : chains) {
        const auto s = tr.span("sim.merge", 1, part);
        report.merge(engine->shard());
    }
    return report;
}

/**
 * Build each system serially and drive ChainEngine::runSlot chain by
 * chain, slot by slot — the reference every other report must equal.
 */
std::vector<SystemReport>
serialPass(const std::vector<ScenarioConfig> &systems, Tracer &tr,
           SerialStats &stats)
{
    std::vector<SystemReport> reports;
    const auto root = tr.span("bench.serial");
    for (const ScenarioConfig &cfg : systems) {
        std::unique_ptr<FogSystem> system;
        {
            const auto s = tr.span("fog.system_setup");
            system = std::make_unique<FogSystem>(cfg);
        }
        const auto &chains = system->chains();
        for (const auto &engine : chains)
            stats.shardBytes += engine->soa().residentBytes();
        stats.physicalNodes += physicalNodes(cfg);
        const std::size_t stride =
            std::max<std::size_t>(1, chains.size() / kIntegrateChains);
        for (std::int64_t slot = 0; slot < cfg.slotCount(); ++slot) {
            const Tick from = slot * cfg.slotInterval;
            for (std::size_t c = 0; c < chains.size(); ++c) {
                {
                    const auto s = tr.span("fog.chain_slot");
                    chains[c]->runSlot(slot);
                }
                if (tr.enabled() && c % stride == 0)
                    probeIntegrate(*chains[c], from,
                                   from + cfg.slotInterval, tr);
            }
        }
        const std::uint64_t chain_slots =
            chains.size() * static_cast<std::uint64_t>(cfg.slotCount());
        stats.integrateCalls += chain_slots * cfg.nodesPerChain;
        if (system->config().balancerPolicy != "none")
            stats.balanceCalls += chain_slots;
        {
            const auto s = tr.span("fog.finalize");
            system->finalizeShards();
        }
        reports.push_back(mergeShards(chains, cfg, tr));
        const auto s = tr.span("sim.report_json");
        (void)reportJson(reports.back());
    }
    return reports;
}

/**
 * rain-fleet: the system on @p threads pool threads, timed one slot
 * window at a time, each window right after the same slot of a serial
 * copy of the system, so the two times that fog.pool_wait_frac
 * compares see the same host load.  Returns the threaded and the
 * serial copy's reports.
 */
std::pair<SystemReport, SystemReport>
threadedPass(const ScenarioConfig &cfg, unsigned threads, Tracer &tr)
{
    const auto root = tr.span("bench.threaded");
    ScenarioConfig threaded_cfg = cfg;
    threaded_cfg.threads = threads;
    std::unique_ptr<FogSystem> system;
    {
        const auto s = tr.span("fog.system_setup");
        system = std::make_unique<FogSystem>(threaded_cfg);
    }
    FogSystem serial(cfg);
    for (std::int64_t slot = 0; slot < cfg.slotCount(); ++slot) {
        {
            const auto s = tr.span("fog.serial_slot");
            for (const auto &engine : serial.chains())
                engine->runSlot(slot);
        }
        const auto s = tr.span("fog.window");
        system->runWindow(slot, slot + 1);
    }
    system->finalizeShards();
    serial.finalizeShards();
    Tracer off(false);
    return {mergeShards(system->chains(), cfg, off),
            mergeShards(serial.chains(), cfg, off)};
}

/** Figures of the traced partition pass. */
struct PartitionStats
{
    std::uint64_t roundBytes = 0; ///< newest rounds, summed over systems
    std::uint64_t frameBytes = 0;
    std::uint64_t frames = 0;
};

/**
 * checkpoint-workers, traced: the partition systems the workers would
 * build, stepped in-process one barrier window at a time with a
 * checkpoint per round; every shard goes through the wire encoding and
 * back before it is merged; then each partition resumes from its
 * newest checkpoint and runs to the horizon.  Returns the merged
 * report of the stepped partitions and that of the resumed ones.
 */
std::pair<SystemReport, SystemReport>
partitionPass(const ScenarioConfig &cfg, unsigned workers,
              const std::string &workDir, Tracer &tr,
              PartitionStats &stats)
{
    const auto root = tr.span("bench.dist");
    const ScratchDir dir(workDir + "/ckpt-traced");
    const auto ranges = dist::partitionChains(cfg.chains, workers);
    std::vector<ScenarioConfig> cfgs;
    std::vector<std::unique_ptr<FogSystem>> parts;
    for (std::size_t p = 0; p < ranges.size(); ++p) {
        ScenarioConfig pc = cfg;
        pc.snapshot.dir = dist::workerSnapshotDir(dir.path(), p);
        fs::create_directories(pc.snapshot.dir);
        const auto s = tr.span("fog.system_setup", 1, static_cast<int>(p));
        parts.push_back(std::make_unique<FogSystem>(pc, ranges[p].lo,
                                                    ranges[p].hi));
        cfgs.push_back(pc);
    }

    const std::int64_t slots = cfg.slotCount();
    std::uint64_t round_bytes = 0;
    for (std::int64_t from = 0; from < slots;) {
        const std::int64_t to = std::min(
            slots, (from / kCheckpointEvery + 1) * kCheckpointEvery);
        for (std::size_t p = 0; p < parts.size(); ++p) {
            const auto s = tr.span("dist.window", 1, static_cast<int>(p));
            parts[p]->runWindow(from, to);
        }
        if (to < slots) {
            round_bytes = 0;
            for (std::size_t p = 0; p < parts.size(); ++p) {
                {
                    const auto s =
                        tr.span("snapshot.save", 1, static_cast<int>(p));
                    parts[p]->saveSnapshot(to);
                }
                round_bytes += fs::file_size(
                    cfgs[p].snapshot.dir + "/" +
                    snapshot::snapshotFileName(to));
            }
        }
        from = to;
    }
    stats.roundBytes += round_bytes;

    SystemReport stepped;
    stepped.idealPackages = cfg.idealPackages();
    for (std::size_t p = 0; p < parts.size(); ++p) {
        const int part = static_cast<int>(p);
        {
            const auto s = tr.span("fog.finalize", 1, part);
            parts[p]->finalizeShards();
        }
        const auto &chains = parts[p]->chains();
        for (std::size_t i = 0; i < chains.size(); ++i) {
            dist::ShardMsg msg;
            msg.chain = chains[i]->chainIndex();
            {
                const auto s = tr.span("dist.shard_blob", 1, part);
                msg.blob = parts[p]->shardBlob(i);
            }
            std::string frame;
            {
                const auto s = tr.span("dist.frame_encode", 1, part);
                frame = dist::encodeFrame(dist::MsgType::Shard,
                                          dist::encodeMsg(msg));
            }
            stats.frameBytes += frame.size();
            ++stats.frames;
            SystemReport shard;
            {
                const auto s = tr.span("dist.frame_decode", 1, part);
                std::size_t consumed = 0;
                const dist::Frame f = dist::decodeFrame(frame, consumed);
                const auto back =
                    dist::decodeMsg<dist::ShardMsg>(f.payload);
                snapshot::InArchive ar(back.blob);
                ar.pushScope("shard");
                shard.serialize(ar);
                ar.popScope();
                if (consumed != frame.size() || back.chain != msg.chain ||
                    !ar.atEnd())
                    fatal("shard frame of chain ", msg.chain,
                          " did not round-trip");
            }
            const auto s = tr.span("sim.merge", 1, part);
            stepped.merge(shard);
        }
    }
    parts.clear();

    SystemReport resumed;
    resumed.idealPackages = cfg.idealPackages();
    for (std::size_t p = 0; p < ranges.size(); ++p) {
        const int part = static_cast<int>(p);
        const std::string file =
            snapshot::latestSnapshot(cfgs[p].snapshot.dir);
        if (file.empty())
            fatal("partition ", p, " left no checkpoint");
        {
            const auto s = tr.span("snapshot.read", 1, part);
            const snapshot::Snapshot snap = snapshot::readSnapshot(file);
        }
        std::unique_ptr<FogSystem> system;
        {
            const auto s = tr.span("snapshot.resume", 1, part);
            system = FogSystem::resumePartition(file, cfgs[p],
                                                ranges[p].lo,
                                                ranges[p].hi);
        }
        system->runWindow(system->resumeSlot(), slots);
        system->finalizeShards();
        for (const auto &engine : system->chains())
            resumed.merge(engine->shard());
    }
    return {stepped, resumed};
}

// -------------------------------------------------------------- probes

/** Build the workload's traces with the public trace factories. */
void
probeTraceBuild(const std::vector<ScenarioConfig> &systems, Tracer &tr)
{
    for (const ScenarioConfig &cfg : systems) {
        const Tick span = cfg.horizon + 2 * cfg.slotInterval;
        if (cfg.traceKind == TraceKind::RainLow) {
            const auto s = tr.span("energy.trace_build");
            const CumulativeTrace shared(
                traces::makeRainUnitStream(cfg.seed * 131 + 7, span),
                span, cfg.energyCache.grid);
        } else {
            Rng rng(cfg.seed);
            for (std::uint64_t n = 0; n < physicalNodes(cfg); ++n) {
                const auto s = tr.span("energy.trace_build");
                const auto trace =
                    traces::makeForestTrace(rng, span, cfg.meanIncome);
            }
        }
    }
}

/**
 * Time a private, registry-built balancer of every non-`none` policy
 * the workload runs on LbNodeState vectors of its chain length, drawn
 * from the workload seed.
 */
void
probeBalance(const std::vector<ScenarioConfig> &systems,
             std::uint64_t seed, Tracer &tr)
{
    const PolicyRegistry &registry = PolicyRegistry::instance();
    std::set<std::pair<std::string, std::size_t>> probed;
    for (const ScenarioConfig &cfg : systems) {
        const std::string spec =
            registry.canonicalSpec(cfg.balancerPolicy);
        if (spec != "none")
            probed.emplace(spec, cfg.nodesPerChain);
    }
    Rng draw(scenarioSeed(seed, 0xBA1A));
    Rng lb_rng(scenarioSeed(seed, 0xBA1B));
    for (const auto &[spec, length] : probed) {
        const auto balancer = registry.make(spec);
        std::vector<LbNodeState> states(length);
        LbOutcome outcome;
        for (int i = 0; i < kBalanceProbes; ++i) {
            for (LbNodeState &st : states) {
                st.alive = draw.chance(0.9);
                st.pendingTasks = static_cast<int>(draw.uniformInt(0, 3));
                st.capacityTasks = draw.uniform(0.0, 4.0);
                st.taskCost = draw.uniform(0.8, 1.2);
            }
            const auto s = tr.span("balance.balance_into");
            balancer->balanceInto(states, lb_rng, outcome);
        }
    }
}

// ----------------------------------------------------- simulated counts

/**
 * Layer that does the work each SystemReport metric counts.  Names
 * come from the metric registry; a registry metric missing here is
 * not reported until it is given a layer.
 */
const std::map<std::string, std::string> &
metricLayers()
{
    static const std::map<std::string, std::string> layers = {
        {"wakeups", "node"},
        {"depletion_failures", "node"},
        {"packages_sampled", "node"},
        {"packages_in_fog", "node"},
        {"packages_to_cloud", "node"},
        {"packages_incidental", "node"},
        {"rtc_resyncs", "node"},
        {"spent_compute_mj", "node"},
        {"spent_sample_mj", "node"},
        {"spent_wake_mj", "node"},
        {"harvested_mj", "energy"},
        {"cap_overflow_mj", "energy"},
        {"tasks_balanced_away", "balance"},
        {"lb_messages", "balance"},
        {"lb_failed_regions", "balance"},
        {"tx_lost", "net"},
        {"tx_aborted", "net"},
        {"relay_hops", "net"},
        {"relay_drops", "net"},
        {"rt_requests_served", "net"},
        {"rt_requests_missed", "net"},
        {"spent_tx_mj", "net"},
        {"spent_rx_mj", "net"},
        {"orphan_scans", "fog"},
        {"rejoins", "fog"},
        {"membership_updates", "virt"},
    };
    return layers;
}

void
addSimulatedCounts(const std::vector<SystemReport> &reports,
                   std::vector<Scalar> &out)
{
    SystemReport total;
    for (const SystemReport &r : reports)
        total.merge(r);
    for (const auto &d : SystemReport::metrics().metrics()) {
        if (d.derived() || d.mergeRule == MergeRule::Config)
            continue;
        const auto it = metricLayers().find(d.name);
        if (it != metricLayers().end())
            out.emplace_back(it->second + "." + d.name, d.get(total));
    }
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    out.emplace_back("node.wake_ratio",
                     ratio(u(total.wakeups),
                           u(total.wakeups + total.depletionFailures)));
    out.emplace_back("node.yield_ratio",
                     ratio(u(total.totalProcessed()),
                           u(total.packagesSampled)));
    out.emplace_back("net.relay_ratio",
                     ratio(u(total.relayHops),
                           u(total.relayHops + total.relayDrops)));
    out.emplace_back("balance.tasks_per_message",
                     ratio(u(total.tasksBalancedAway),
                           u(total.lbMessages)));
}

/** Tallies runs against the reference and the pinned reports. */
class Checker
{
  public:
    Checker(const std::vector<SystemReport> &reference,
            std::vector<SystemReport> pinned, Result &result)
        : _reference(reference), _pinned(std::move(pinned)),
          _result(result)
    {}

    /** One system run whose report should be reference[index]. */
    bool
    check(std::size_t index, const SystemReport &report)
    {
        ++_result.attempted;
        const bool ok = report == _reference.at(index) &&
            (_pinned.empty() || report == _pinned.at(index));
        if (!ok)
            ++_result.failed;
        return ok;
    }

  private:
    const std::vector<SystemReport> &_reference;
    std::vector<SystemReport> _pinned;
    Result &_result;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "rain-fleet", "forest-sweep", "relay-mux", "checkpoint-workers"};
    return names;
}

Result
runWorkload(const Options &opt, Tracer &tr)
{
    const Plan plan = makePlan(opt);
    std::vector<ScenarioConfig> measured = plan.systems;
    for (ScenarioConfig &cfg : measured) {
        if (!opt.perturbBalancer.empty())
            cfg.balancerPolicy = opt.perturbBalancer;
    }
    std::uint64_t rep_node_slots = 0;
    for (const ScenarioConfig &cfg : plan.systems)
        rep_node_slots += logicalNodeSlots(cfg);

    Result result;
    const bool distributed = plan.workers > 0;
    result.notes = {
        {"workload", opt.workload},
        {"seed", std::to_string(opt.seed)},
        {"pool_threads", std::to_string(plan.poolThreads)},
        {"workers", std::to_string(plan.workers)},
        {"systems", std::to_string(plan.systems.size())},
    };

    // Closed loop, one client: the next repetition starts when the
    // previous one's final report is written.  Repetition 0 warms the
    // heap, caches and page cache; its report is checked, its times
    // are not used.
    std::vector<std::pair<std::size_t, SystemReport>> runs;
    std::vector<double> setup, rate, wall, resume, checkpoint_mb, run_s;
    const std::size_t runs_per_rep =
        (distributed ? 2 : 1) * plan.systems.size();
    // Sampled between the systems of repetitions 1 on.
    Calibration calibration;
    {
        // Forked workers inherit the affinity mask, so checkpoint-workers'
        // workers share the CPU of their repetition.
        const CpuRotation rotation;
        std::int64_t loop_start = 0;
        for (int rep = 0;
             rep < 2 || toSeconds(nowNs() - loop_start) < opt.seconds;
             ++rep) {
            if (rep == 1)
                loop_start = nowNs();
            rotation.pin(static_cast<std::size_t>(rep));
            Calibration *cal = rep == 0 ? nullptr : &calibration;
            try {
                std::vector<SystemReport> reports;
                const RepTimes t = distributed
                    ? runDistributedRep(measured, plan.workers,
                                        opt.workDir, rep, cal, reports)
                    : runInProcess(measured, cal, reports);
                for (std::size_t k = 0; k < reports.size(); ++k)
                    runs.emplace_back(distributed ? k / 2 : k, reports[k]);
                if (rep == 0)
                    continue;
                setup.push_back(t.setup);
                rate.push_back(static_cast<double>(rep_node_slots) / t.run);
                wall.push_back(t.wall);
                run_s.push_back(t.run);
                resume.push_back(t.resume);
                checkpoint_mb.push_back(
                    static_cast<double>(t.checkpointBytes) / 1e6);
                bench::out("repetition %d: setup %.4f s, run %.4f s, "
                           "wall %.4f s (host)\n", rep, t.setup, t.run,
                           t.wall);
            } catch (const std::exception &e) {
                bench::err("perfbench: repetition %d failed: %s\n", rep,
                           e.what());
                result.attempted += runs_per_rep;
                result.failed += runs_per_rep;
            }
        }
    }
    if (wall.empty())
        fatal("every repetition of ", opt.workload, " failed");
    result.notes.emplace_back("repetitions", std::to_string(wall.size()));

    // Host seconds to calibrated seconds (see Calibration).
    const double scale = calibration.scale();
    const double rss_mb = peakRssMb();
    result.endToEnd = {
        {"node_slots_per_s", median(rate) / scale},
        {"setup_s", median(setup) * scale},
        {"wall_s", median(wall) * scale},
        {"peak_rss_mb", rss_mb},
    };
    bench::out("host medians: %.6g node-slots/s, setup %.6g s, wall "
               "%.6g s; calibration sample %.4f ms, scale %.4f\n",
               median(rate), median(setup), median(wall),
               calibration.medianSample() * 1e3, scale);

    // The reference: the same scenarios, serial, via runSlot.
    Tracer off(false);
    SerialStats ref_stats;
    const std::int64_t ref_start = nowNs();
    result.reference = serialPass(plan.systems, off, ref_stats);
    double untraced_serial_s = toSeconds(nowNs() - ref_start);

    std::vector<SystemReport> pinned;
    if (!opt.pinnedPath.empty()) {
        pinned = readReports(opt.pinnedPath, opt);
        if (pinned.size() != result.reference.size())
            fatal("pinned file ", opt.pinnedPath, " holds ",
                  pinned.size(), " reports, expected ",
                  result.reference.size());
    }
    Checker checker(result.reference, pinned, result);
    for (std::size_t k = 0; k < result.reference.size(); ++k)
        checker.check(k, result.reference[k]);
    for (const auto &[index, report] : runs)
        checker.check(index, report);

    result.layers = {
        {"checkpoint_mb", distributed ? median(checkpoint_mb) : 0.0},
        {"resume_s", distributed ? median(resume) : 0.0},
        {"bench.calibration_ms", calibration.medianSample() * 1e3},
    };
    if (!opt.trace)
        return result;

    // Traced passes: each report is one more run checked against the
    // reference, which proves the probes changed nothing.
    SerialStats stats;
    const std::vector<SystemReport> traced =
        serialPass(plan.systems, tr, stats);
    bool trace_equal = true;
    for (std::size_t k = 0; k < traced.size(); ++k)
        trace_equal = checker.check(k, traced[k]) && trace_equal;
    // The first serial pass of a process also pays for faulting in its
    // heap, so trace.overhead_frac compares against the faster of the
    // untraced passes before and after the traced one.
    const std::int64_t again_start = nowNs();
    const std::vector<SystemReport> again =
        serialPass(plan.systems, off, ref_stats);
    untraced_serial_s =
        std::min(untraced_serial_s, toSeconds(nowNs() - again_start));
    for (std::size_t k = 0; k < again.size(); ++k)
        checker.check(k, again[k]);
    if (plan.poolThreads > 0) {
        for (std::size_t k = 0; k < plan.systems.size(); ++k) {
            const auto [threaded, serial] =
                threadedPass(plan.systems[k], plan.poolThreads, tr);
            trace_equal = checker.check(k, threaded) && trace_equal;
            trace_equal = checker.check(k, serial) && trace_equal;
        }
    }
    PartitionStats pstats;
    if (distributed) {
        for (std::size_t k = 0; k < plan.systems.size(); ++k) {
            const auto [stepped, resumed] =
                partitionPass(plan.systems[k], plan.workers, opt.workDir,
                              tr, pstats);
            trace_equal = checker.check(k, stepped) && trace_equal;
            trace_equal = checker.check(k, resumed) && trace_equal;
        }
    }
    {
        const auto root = tr.span("bench.probes");
        probeTraceBuild(plan.systems, tr);
        probeBalance(plan.systems, opt.seed, tr);
    }
    result.notes.emplace_back("trace_equal", trace_equal ? "1" : "0");

    const double nodes = static_cast<double>(stats.physicalNodes);
    const std::vector<Scalar> measured_layers = {
        {"node.shard_bytes_per_node",
         static_cast<double>(stats.shardBytes) / nodes},
        {"snapshot.bytes_per_node",
         static_cast<double>(pstats.roundBytes) / nodes},
        {"dist.shard_frame_bytes",
         ratio(static_cast<double>(pstats.frameBytes),
               static_cast<double>(pstats.frames))},
        // Inputs of the span reader's derived figures.
        {"input.threads", static_cast<double>(plan.poolThreads)},
        {"input.workers", static_cast<double>(plan.workers)},
        {"input.untraced_run_s", median(run_s)},
        {"input.untraced_serial_s", untraced_serial_s},
        {"input.integrate_calls",
         static_cast<double>(stats.integrateCalls)},
        {"input.balance_calls", static_cast<double>(stats.balanceCalls)},
    };
    result.layers.insert(result.layers.end(), measured_layers.begin(),
                         measured_layers.end());
    addSimulatedCounts(result.reference, result.layers);
    return result;
}

void
writeReports(const std::string &path, const Options &opt,
             const std::vector<SystemReport> &reports)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write ", path);
    os << "{\"schema\": \"neofog-perfbench-reports-v1\", \"workload\": ";
    report_io::writeJsonString(os, opt.workload);
    os << ", \"seed\": " << opt.seed << ", \"reports\": [\n";
    for (std::size_t k = 0; k < reports.size(); ++k) {
        if (k > 0)
            os << ",\n";
        reports[k].toJson(os, "system" + std::to_string(k));
    }
    os << "]}\n";
    if (!os)
        fatal("short write to ", path);
}

std::vector<SystemReport>
readReports(const std::string &path, const Options &opt)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot read pinned reports ", path);
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    const report_io::JsonValue doc = report_io::parseJson(text);
    const report_io::JsonValue *schema = doc.find("schema");
    const report_io::JsonValue *workload = doc.find("workload");
    const report_io::JsonValue *seed = doc.find("seed");
    const report_io::JsonValue *reports = doc.find("reports");
    if (!schema || !schema->isString() ||
        schema->asString() != "neofog-perfbench-reports-v1" ||
        !workload || !workload->isString() || !seed ||
        !seed->isNumber() || !reports || !reports->isArray())
        fatal(path, " is not a neofog-perfbench-reports-v1 document");
    if (workload->asString() != opt.workload ||
        seed->asU64() != opt.seed)
        fatal(path, " pins ", workload->asString(), " seed ",
              seed->asU64(), ", not this run's ", opt.workload,
              " seed ", opt.seed);
    std::vector<SystemReport> out;
    for (const report_io::JsonValue &item : reports->items())
        out.push_back(SystemReport::fromJson(item));
    return out;
}

} // namespace neofog::perfbench
