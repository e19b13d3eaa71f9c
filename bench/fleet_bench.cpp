/**
 * @file
 * Fleet-scale throughput harness: the chain node shards + income
 * hoist running city-sized deployments (100k+ chains, 1M+ total
 * nodes).
 *
 * Four sections:
 *  - fleet throughput: build and run the full fleet, reporting
 *    slots_per_sec (chain-slots executed per wall-clock second) and
 *    bytes_per_node (resident node-shard bytes / total nodes); a
 *    20-chain fleet of the same shape over 1000 slots must hold the
 *    same bytes per node (bytes_per_node_1000_slots), since no node
 *    state grows with the horizon;
 *  - thread sweep: the same fleet at --threads 1/2/4 must produce
 *    bit-identical reports (chain-order shard merge discipline);
 *  - snapshot resume: a mid-horizon checkpoint must resume onto the
 *    uninterrupted run's exact report;
 *  - distributed sharding: the same fleet slice through the
 *    multi-process coordinator/worker runtime (src/dist/) at
 *    --workers 2 and 4, reports asserted bit-identical to the
 *    in-process run, end-to-end throughput reported.
 *
 * Options:
 *   --chains N   fleet width override (default 100000; smoke 2000)
 *   --nodes M    nodes per chain (default 10)
 *   --slots S    horizon in slots (default 10)
 *   --smoke      small run for CI plus schema validation of the JSON
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.hh"
#include "dist/coordinator.hh"
#include "fog/fog_system.hh"
#include "sim/logging.hh"
#include "sim/report_io.hh"
#include "snapshot/snapshot.hh"

using namespace neofog;
using namespace neofog::bench;

namespace {

double
seconds(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * The fleet scenario: the fig-13 deployment shape (dependent rainy-day
 * income — every node a scaled view of one shared stream, the case the
 * income hoist shares) at city width.
 */
ScenarioConfig
fleetScenario(std::size_t chains, std::size_t nodes_per_chain,
              std::int64_t slots)
{
    ScenarioConfig cfg;
    cfg.chains = chains;
    cfg.nodesPerChain = nodes_per_chain;
    cfg.multiplexing = 1;
    cfg.mode = OperatingMode::FiosNvMote;
    cfg.traceKind = TraceKind::RainLow;
    cfg.meanIncome = Power::fromMilliwatts(2.2);
    cfg.balancerPolicy = "distributed";
    cfg.slotInterval = 12 * kSec;
    cfg.horizon = slots * cfg.slotInterval;
    cfg.seed = 20260808;
    return cfg;
}

/** Total resident bytes across every chain's node shard. */
std::size_t
fleetShardBytes(const FogSystem &sys)
{
    std::size_t bytes = 0;
    for (const auto &engine : sys.chains())
        bytes += engine->soa().residentBytes();
    return bytes;
}

/** Horizon of the bytes-per-node bound check. */
constexpr std::int64_t kLongSlots = 1000;

struct TimedRun
{
    double buildSecs = 0.0; ///< FogSystem construction (trace + nodes)
    double runSecs = 0.0;   ///< slot execution (the throughput metric)
};

TimedRun
runTimed(const ScenarioConfig &cfg, SystemReport &report,
         std::size_t *shard_bytes = nullptr)
{
    TimedRun timed;
    auto start = std::chrono::steady_clock::now();
    FogSystem sys(cfg);
    timed.buildSecs = seconds(start);
    start = std::chrono::steady_clock::now();
    report = sys.run();
    timed.runSecs = seconds(start);
    if (shard_bytes != nullptr)
        *shard_bytes = fleetShardBytes(sys);
    return timed;
}

/** Re-read the emitted JSON and check it against the schema. */
int
validateSink(const ResultSink &sink)
{
    std::ifstream in(sink.path());
    if (!in) {
        err("fleet_bench: cannot re-read %s\n", sink.path().c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        const auto doc = report_io::parseJson(text.str());
        const std::string schema_err = report_io::validateBenchJson(doc);
        if (!schema_err.empty()) {
            err("fleet_bench: schema violation: %s\n",
                schema_err.c_str());
            return 1;
        }
    } catch (const FatalError &e) {
        err("fleet_bench: emitted invalid JSON: %s\n", e.what());
        return 1;
    }
    out("fleet_bench: %s validates against neofog-bench-v1\n",
        sink.path().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t chains = 100'000;
    std::size_t nodes_per_chain = 10;
    std::int64_t slots = 10;
    bool smoke = false;
    bool chains_set = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--chains") == 0 &&
                   i + 1 < argc) {
            chains = static_cast<std::size_t>(std::atoll(argv[++i]));
            chains_set = true;
        } else if (std::strcmp(argv[i], "--nodes") == 0 &&
                   i + 1 < argc) {
            nodes_per_chain =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--slots") == 0 &&
                   i + 1 < argc) {
            slots = std::atoll(argv[++i]);
        } else {
            err("usage: %s [--chains N] [--nodes M] [--slots S] "
                "[--smoke]\n",
                argv[0]);
            return 2;
        }
    }
    if (smoke && !chains_set)
        chains = 2'000;
    if (chains == 0 || nodes_per_chain == 0 || slots <= 0) {
        err("fleet_bench: fleet shape must be nonzero\n");
        return 2;
    }

    const std::size_t total_nodes = chains * nodes_per_chain;
    const double chain_slots =
        static_cast<double>(chains) * static_cast<double>(slots);
    ResultSink sink("fleet_bench");
    sink.add("chains", static_cast<double>(chains));
    sink.add("nodes_per_chain", static_cast<double>(nodes_per_chain));
    sink.add("total_nodes", static_cast<double>(total_nodes));
    sink.add("slots", static_cast<double>(slots));

    // ---- Section 1: fleet throughput --------------------------------
    header("Fleet throughput: " + std::to_string(chains) + " chains x " +
           std::to_string(nodes_per_chain) + " nodes, " +
           std::to_string(slots) + " slots");
    ScenarioConfig cfg = fleetScenario(chains, nodes_per_chain, slots);

    SystemReport fleet;
    std::size_t shard_bytes = 0;
    const TimedRun fleet_t = runTimed(cfg, fleet, &shard_bytes);

    const double slots_per_sec = chain_slots / fleet_t.runSecs;
    const double bytes_per_node =
        static_cast<double>(shard_bytes) /
        static_cast<double>(total_nodes);
    out("  build %.2f s, run %.2f s, %.0f chain-slots/s\n",
        fleet_t.buildSecs, fleet_t.runSecs, slots_per_sec);
    out("\nresident shard bytes/node: %.1f (%zu nodes, %.1f MiB "
        "total)\n",
        bytes_per_node, total_nodes,
        static_cast<double>(shard_bytes) / (1024.0 * 1024.0));
    sink.add("slots_per_sec", slots_per_sec);
    sink.add("build_secs", fleet_t.buildSecs);
    sink.add("bytes_per_node", bytes_per_node);
    {
        const std::size_t long_chains = 20;
        SystemReport long_run;
        std::size_t long_bytes = 0;
        runTimed(fleetScenario(long_chains, nodes_per_chain, kLongSlots),
                 long_run, &long_bytes);
        const double long_per_node =
            static_cast<double>(long_bytes) /
            static_cast<double>(long_chains * nodes_per_chain);
        const bool bounded = long_per_node == bytes_per_node;
        out("resident shard bytes/node at %lld slots: %.1f (%zu chains), "
            "same as at %lld: %s\n",
            static_cast<long long>(kLongSlots), long_per_node,
            long_chains, static_cast<long long>(slots),
            bounded ? "yes" : "NO");
        sink.add("bytes_per_node_1000_slots", long_per_node);
        if (!bounded) {
            err("fleet_bench: node state grows with the horizon\n");
            return 1;
        }
    }

    // ---- Section 2: thread-sweep bit-identity ----------------------
    header("Thread sweep: chain-order shard merge bit-identity");
    {
        bool consistent = true;
        double best_secs = fleet_t.runSecs;
        double four_thread_secs = 0.0;
        for (unsigned threads : {2u, 4u}) {
            ScenarioConfig swept = cfg;
            swept.threads = threads;
            SystemReport r;
            const TimedRun t_t = runTimed(swept, r);
            best_secs = std::min(best_secs, t_t.runSecs);
            if (threads == 4)
                four_thread_secs = t_t.runSecs;
            if (!(r == fleet))
                consistent = false;
            out("  --threads %u: %.2f s, bit-identical: %s\n", threads,
                t_t.runSecs, r == fleet ? "yes" : "NO");
        }
        // Amdahl-style scaling quality: (4-thread throughput over
        // 1-thread throughput) / 4.  1.0 = perfect scaling; threads
        // sharing the host's memory bandwidth and caches land well
        // below that, and the gate watches it so locality regressions
        // show up at the PR that caused them.
        const double efficiency_4t =
            fleet_t.runSecs / (4.0 * four_thread_secs);
        out("  parallel efficiency at 4 threads: %.2f\n",
            efficiency_4t);
        sink.add("reports_consistent", consistent ? 1.0 : 0.0);
        sink.add("best_threaded_slots_per_sec", chain_slots / best_secs);
        sink.add("parallel_efficiency_4t", efficiency_4t);
        if (!consistent) {
            err("fleet_bench: thread sweep diverged\n");
            return 1;
        }
    }

    // ---- Section 3: snapshot resume ---------------------------------
    header("Snapshot resume: mid-horizon checkpoint, exact report");
    {
        namespace fs = std::filesystem;
        const char *bench_dir = std::getenv("NEOFOG_BENCH_DIR");
        const fs::path snap_dir =
            fs::path(bench_dir ? bench_dir : ".") /
            "fleet_bench_snapshots";
        std::error_code ec;
        fs::remove_all(snap_dir, ec);
        fs::create_directories(snap_dir, ec);
        if (ec) {
            err("fleet_bench: cannot create %s\n",
                snap_dir.string().c_str());
            return 1;
        }

        // Snapshot a small slice of the fleet (resume reconstructs and
        // re-runs it; the bit-identity claim is per-chain, so a slice
        // proves the layout without doubling the fleet run).
        ScenarioConfig snap_cfg = fleetScenario(
            std::min<std::size_t>(chains, smoke ? 200 : 1'000),
            nodes_per_chain, slots);
        SystemReport uninterrupted;
        runTimed(snap_cfg, uninterrupted);

        const std::int64_t split = std::max<std::int64_t>(1, slots / 2);
        snap_cfg.snapshot.everySlots = split;
        snap_cfg.snapshot.dir = snap_dir.string();
        SystemReport snapping;
        runTimed(snap_cfg, snapping);
        bool resume_ok = snapping == uninterrupted;

        const std::string snap_path =
            (snap_dir / snapshot::snapshotFileName(split)).string();
        if (resume_ok && fs::exists(snap_path)) {
            auto resumed = FogSystem::resume(snap_path);
            resume_ok = resumed->resumeSlot() == split &&
                        resumed->run() == uninterrupted;
        } else {
            resume_ok = false;
        }
        fs::remove_all(snap_dir, ec);
        out("  resume at slot %lld bit-identical: %s\n",
            static_cast<long long>(split), resume_ok ? "yes" : "NO");
        sink.add("resume_bit_identical", resume_ok ? 1.0 : 0.0);
        if (!resume_ok) {
            err("fleet_bench: snapshot resume diverged\n");
            return 1;
        }
    }

    // ---- Section 4: distributed sharding ---------------------------
    header("Distributed sharding: --workers vs in-process, bit-identity");
    {
        // The same slice shape Section 3 snapshots: multi-process
        // overhead (fork + wire barriers + shard merge) is per-run,
        // so a slice measures it without doubling the fleet cost.
        const std::size_t slice =
            std::min<std::size_t>(chains, smoke ? 200 : 1'000);
        const ScenarioConfig dist_cfg =
            fleetScenario(slice, nodes_per_chain, slots);
        const double slice_slots = static_cast<double>(slice) *
                                   static_cast<double>(slots);
        SystemReport in_process;
        runTimed(dist_cfg, in_process);

        bool matches = true;
        double best_secs = 0.0;
        for (const long long workers : {2LL, 4LL}) {
            dist::DistOptions opt;
            opt.workersRequested = workers;
            const auto start = std::chrono::steady_clock::now();
            const dist::DistResult res =
                dist::runDistributed(dist_cfg, opt);
            const double secs = seconds(start);
            if (best_secs == 0.0 || secs < best_secs)
                best_secs = secs;
            if (!(res.report == in_process))
                matches = false;
            out("  --workers %lld: %.2f s end-to-end, bit-identical: "
                "%s\n",
                workers, secs, res.report == in_process ? "yes" : "NO");
        }
        const double dist_slots_per_sec = slice_slots / best_secs;
        out("  best distributed throughput: %.0f chain-slots/s "
            "(fork + wire + merge included)\n",
            dist_slots_per_sec);
        sink.add("workers_matches_threads", matches ? 1.0 : 0.0);
        sink.add("dist_slots_per_sec", dist_slots_per_sec);
        if (!matches) {
            err("fleet_bench: distributed run diverged from the "
                "in-process report\n");
            return 1;
        }
    }

    if (smoke)
        sink.note("mode", "smoke");
    if (!sink.write())
        return 1;
    return smoke ? validateSink(sink) : 0;
}
