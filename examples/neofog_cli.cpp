/**
 * @file
 * neofog_cli — command-line driver for arbitrary system scenarios.
 *
 * Lets a user run any deployment without writing C++:
 *
 *   neofog_cli --mode fios --balancer distributed --trace forest \
 *              --income-mw 2.6 --nodes 10 --chains 1 --hours 5 \
 *              --mux 1 --seed 1 [--format json] [--out results.json] \
 *              [--probes] [--dump-energy node]
 *
 * Every result flows through the report_io exporter: text (aligned
 * tables), json (schema-tagged, machine-readable), or csv.  --probes
 * attaches a ChainProbeLog to every chain and exports its streams;
 * --dump-energy exports one node's stored-energy series the same way.
 * Both cover the slots this process runs (a resumed run starts at its
 * snapshot's slot).
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "balance/policy_registry.hh"
#include "dist/coordinator.hh"
#include "dist/partition.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/logging.hh"
#include "sim/report_io.hh"
#include "snapshot/snapshot.hh"

using namespace neofog;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --mode vp|nvp|fios        node architecture (default fios)\n"
        "  --balancer SPEC           offloading policy, as NAME or\n"
        "                            NAME:key=val,key=val "
        "(default distributed;\n"
        "                            --list-balancers documents all "
        "policies\n"
        "                            and their parameters)\n"
        "  --list-balancers          print the policy registry and "
        "exit\n"
        "  --trace forest|bridge|mountain|rain|constant "
        "(default forest)\n"
        "  --income-mw X             mean ambient income (default 2.6)\n"
        "  --nodes N                 logical nodes per chain "
        "(default 10;\n"
        "                            --nodes-per-chain is an alias)\n"
        "  --chains N                independent chains (default 1)\n"
        "  --hours X                 horizon (default 5)\n"
        "  --slot-s X                slot interval seconds "
        "(default 12)\n"
        "  --mux K                   NVD4Q multiplexing (default 1)\n"
        "  --profile P               day profile 0-4 (default 0)\n"
        "  --seed S                  RNG seed (default 1)\n"
        "  --threads N               worker threads for the chain "
        "loop\n"
        "                            (default 1; 0 = all hardware "
        "threads;\n"
        "                            results identical for any N)\n"
        "  --workers N               shard the chains across N forked\n"
        "                            worker processes (0 = all "
        "hardware\n"
        "                            threads; composes with --threads "
        "inside\n"
        "                            each worker and with "
        "--snapshot-every /\n"
        "                            --resume; results identical for "
        "any N)\n"
        "  --incidental              enable incidental computing\n"
        "  --relay                   hop-by-hop relaying to the sink\n"
        "  --rt-chance P             real-time request probability\n"
        "  --freq-scaling            Spendthrift clock scaling\n"
        "  --format text|json|csv    output format (default text)\n"
        "  --out FILE                write results to FILE instead of "
        "stdout\n"
        "  --probes                  per-chain time-series probes "
        "(stored\n"
        "                            energy, yield, balancer, "
        "depletion) over\n"
        "                            the slots this process runs "
        "(after\n"
        "                            --resume, from the snapshot's "
        "slot)\n"
        "  --probe-cap N             probe ring capacity "
        "(default 4096)\n"
        "  --dump-energy I           export node I's stored-energy "
        "series\n"
        "                            (chain 0; the slots this process "
        "runs,\n"
        "                            at most 400 points)\n"
        "  --snapshot-every N        checkpoint every N slots "
        "(default off)\n"
        "  --snapshot-dir D          checkpoint directory "
        "(default .)\n"
        "  --resume PATH             resume from a snapshot file, or "
        "from the\n"
        "                            newest valid snapshot in a "
        "directory\n"
        "                            (scenario flags are ignored: the "
        "snapshot\n"
        "                            carries its own config)\n"
        "  --version                 print version and schema tags\n"
        "  --help\n",
        argv0);
}

#ifndef NEOFOG_VERSION
#define NEOFOG_VERSION "0.0.0"
#endif

void
printVersion()
{
    std::printf("neofog_cli %s\n"
                "schemas:\n"
                "  neofog-report-v1\n"
                "  neofog-aggregate-v1\n"
                "  neofog-run-v1\n"
                "  neofog-bench-v1\n"
                "  neofog-snapshot-v2 (written and read)\n"
                "  neofog-snapshot-v1 (read)\n",
                NEOFOG_VERSION);
}

bool
parseMode(const std::string &v, OperatingMode &out)
{
    if (v == "vp") {
        out = OperatingMode::NosVp;
    } else if (v == "nvp") {
        out = OperatingMode::NosNvp;
    } else if (v == "fios") {
        out = OperatingMode::FiosNvMote;
    } else {
        return false;
    }
    return true;
}

bool
parseTrace(const std::string &v, TraceKind &out)
{
    if (v == "forest") {
        out = TraceKind::ForestIndependent;
    } else if (v == "bridge") {
        out = TraceKind::BridgeDependent;
    } else if (v == "mountain") {
        out = TraceKind::MountainSunny;
    } else if (v == "rain") {
        out = TraceKind::RainLow;
    } else if (v == "constant") {
        out = TraceKind::Constant;
    } else {
        return false;
    }
    return true;
}

/** Largest value of T, the open upper end of most flag ranges. */
template <class T>
constexpr T kMax = std::numeric_limits<T>::max();

/**
 * The value of numeric flag @p flag: @p text parsed whole as a T in
 * [@p lo, @p hi].  Anything else — trailing characters, a sign an
 * unsigned T cannot take, overflow, NaN — exits 2 naming the flag.
 */
template <class T>
T
parseNumber(const std::string &flag, const std::string &text, T lo, T hi,
            const char *want)
{
    T v{};
    const char *first = text.data();
    const char *last = first + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || ptr != last || !(v >= lo && v <= hi)) {
        std::fprintf(stderr, "bad value '%s' for %s: want %s\n",
                     text.c_str(), flag.c_str(), want);
        std::exit(2);
    }
    return v;
}

/**
 * The worker<k> directory count of @p dir when a --workers run wrote
 * it (no snapshot of its own, a valid one in worker0), else 0.
 */
std::size_t
workersDirCount(const std::string &dir)
{
    std::error_code ec;
    if (!std::filesystem::is_directory(dist::workerSnapshotDir(dir, 0),
                                       ec) ||
        !snapshot::latestSnapshot(dir).empty() ||
        snapshot::latestSnapshot(dist::workerSnapshotDir(dir, 0)).empty())
        return 0;
    std::size_t count = 1;
    while (std::filesystem::is_directory(
        dist::workerSnapshotDir(dir, count), ec))
        ++count;
    return count;
}

/** One-line scenario summary used by the text format and JSON meta. */
std::string
scenarioLine(const ScenarioConfig &cfg)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s, %s balancer, %s @ %.2f mW, %zux%zu nodes, "
                  "mux %d, %.1f h",
                  operatingModeName(cfg.mode).c_str(),
                  cfg.balancerPolicy.c_str(),
                  traceKindName(cfg.traceKind).c_str(),
                  cfg.meanIncome.milliwatts(), cfg.chains,
                  cfg.nodesPerChain, cfg.multiplexing,
                  secondsFromTicks(cfg.horizon) / 3600.0);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
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

    int dump_energy = -1;
    bool probes = false;
    std::size_t probe_cap = 4096;
    report_io::Format format = report_io::Format::Text;
    std::string out_path;
    std::string resume_path;
    bool use_workers = false;
    long long workers = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // A count of at least one.
        const auto count = [&] {
            return parseNumber<std::size_t>(arg, next(), 1,
                                            kMax<std::size_t>,
                                            "an integer >= 1");
        };
        // A positive duration in units of @p scale seconds, bounded
        // far below the Tick (int64 microsecond) range.
        const auto duration = [&](double scale) {
            return ticksFromSeconds(
                parseNumber<double>(
                    arg, next(), std::numeric_limits<double>::denorm_min(),
                    1e12 / scale, "a positive number") *
                scale);
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--version") {
            printVersion();
            return 0;
        } else if (arg == "--list-balancers") {
            std::cout << "registered offloading policies "
                         "(--balancer NAME or "
                         "NAME:key=val,key=val):\n\n";
            PolicyRegistry::instance().describe(std::cout);
            return 0;
        } else if (arg == "--mode") {
            if (!parseMode(next(), cfg.mode)) {
                std::fprintf(stderr, "bad --mode\n");
                return 2;
            }
        } else if (arg == "--balancer") {
            cfg.balancerPolicy = next();
        } else if (arg == "--trace") {
            if (!parseTrace(next(), cfg.traceKind)) {
                std::fprintf(stderr, "bad --trace\n");
                return 2;
            }
        } else if (arg == "--income-mw") {
            cfg.meanIncome = Power::fromMilliwatts(parseNumber<double>(
                arg, next(), 0.0, kMax<double>, "a finite number >= 0"));
        } else if (arg == "--nodes" || arg == "--nodes-per-chain") {
            cfg.nodesPerChain = count();
        } else if (arg == "--chains") {
            cfg.chains = count();
        } else if (arg == "--hours") {
            cfg.horizon = duration(3600.0);
        } else if (arg == "--slot-s") {
            cfg.slotInterval = duration(1.0);
        } else if (arg == "--mux") {
            cfg.multiplexing = parseNumber<int>(
                arg, next(), 1, kMax<int>, "an integer >= 1");
        } else if (arg == "--profile") {
            cfg.profileIndex =
                parseNumber<int>(arg, next(), 0, 4, "an integer 0-4");
        } else if (arg == "--seed") {
            cfg.seed = parseNumber<std::uint64_t>(
                arg, next(), 0, kMax<std::uint64_t>,
                "an unsigned 64-bit integer");
        } else if (arg == "--threads") {
            cfg.threads = parseNumber<unsigned>(
                arg, next(), 0, kMax<unsigned>, "an integer >= 0");
        } else if (arg == "--workers") {
            use_workers = true;
            workers = parseNumber<long long>(
                arg, next(), 0, kMax<long long>, "an integer >= 0");
        } else if (arg == "--incidental") {
            cfg.nodeTemplate.enableIncidentalComputing = true;
        } else if (arg == "--relay") {
            cfg.hopByHopRelay = true;
        } else if (arg == "--rt-chance") {
            cfg.realTimeRequestChance = parseNumber<double>(
                arg, next(), 0.0, 1.0, "a probability in [0, 1]");
        } else if (arg == "--freq-scaling") {
            cfg.nodeTemplate.enableFrequencyScaling = true;
        } else if (arg == "--format") {
            if (!report_io::parseFormat(next(), format)) {
                std::fprintf(stderr,
                             "bad --format (text|json|csv)\n");
                return 2;
            }
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--probes") {
            probes = true;
        } else if (arg == "--probe-cap") {
            probe_cap = count();
        } else if (arg == "--dump-energy") {
            dump_energy = parseNumber<int>(arg, next(), 0, kMax<int>,
                                           "an integer >= 0");
        } else if (arg == "--snapshot-every") {
            cfg.snapshot.everySlots = parseNumber<long long>(
                arg, next(), 0, kMax<long long>,
                "an integer >= 0 (0 = off)");
        } else if (arg == "--snapshot-dir") {
            cfg.snapshot.dir = next();
        } else if (arg == "--resume") {
            resume_path = next();
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (!use_workers && !resume_path.empty()) {
        if (const std::size_t n = workersDirCount(resume_path); n > 0) {
            std::fprintf(stderr,
                         "--resume %s: a --workers run wrote it (%zu "
                         "worker<k> directories); resume it with "
                         "--workers %zu\n",
                         resume_path.c_str(), n, n);
            return 2;
        }
    }

    if (use_workers && (probes || dump_energy >= 0)) {
        // Series live inside the worker processes; only report shards
        // travel the wire.
        std::fprintf(stderr, "--probes/--dump-energy need an "
                             "in-process run; drop --workers\n");
        return 2;
    }

    try {
        SystemReport report;
        std::vector<report_io::LabeledSeries> series;

        if (use_workers) {
            // Multi-process sharding (src/dist/): fork workers, run
            // the chain partitions, merge the shards in chain order.
            // A resumed distributed run rebuilds its scenario from
            // worker 0's newest checkpoint under the --resume base
            // directory and continues every partition from its own.
            dist::DistOptions opt;
            opt.workersRequested = workers;
            opt.snapshotEvery = cfg.snapshot.everySlots;
            opt.snapshotDir = resume_path.empty() ? cfg.snapshot.dir
                                                  : resume_path;
            dist::DistResult res = resume_path.empty()
                ? dist::runDistributed(cfg, opt)
                : dist::resumeDistributed(cfg, opt);
            cfg = res.config;
            report = res.report;
        } else {
            // A resumed run rebuilds its scenario from the snapshot's
            // own config section; only the host-local knobs (threads,
            // the checkpoint schedule) carry over from the command
            // line.
            StoredEnergyLog energy_log;
            std::vector<ChainProbeLog> probe_logs;
            std::unique_ptr<FogSystem> system = resume_path.empty()
                ? std::make_unique<FogSystem>(cfg)
                : FogSystem::resume(resume_path, cfg.threads,
                                    cfg.snapshot);
            cfg = system->config();
            // The logs watch the slots this process runs: a history
            // is not restart state, so a resumed run's start at the
            // snapshot's slot.
            if (probes) {
                const std::size_t chains = system->chains().size();
                probe_logs.reserve(chains); // the chains point into it
                for (std::size_t c = 0; c < chains; ++c)
                    system->setProbeLog(c,
                                        &probe_logs.emplace_back(probe_cap));
            }
            if (dump_energy >= 0) {
                const auto idx = static_cast<std::size_t>(dump_energy);
                if (idx >= system->physicalPerChain()) {
                    std::fprintf(stderr, "node index out of range\n");
                    return 2;
                }
                system->setObserver(0, idx, &energy_log);
            }
            report = system->run();

            // Collect every requested time-series stream; they all
            // leave through the same exporter as the report.
            for (std::size_t c = 0; c < probe_logs.size(); ++c)
                for (auto &s : probe_logs[c].series(c))
                    series.push_back(std::move(s));
            if (dump_energy >= 0)
                series.push_back({"chain0.node" +
                                      std::to_string(dump_energy) +
                                      ".stored_mj",
                                  "mJ", energy_log.series().downsampled(400)});
        }

        std::ofstream file;
        if (!out_path.empty()) {
            file.open(out_path);
            if (!file) {
                std::fprintf(stderr, "cannot open %s\n",
                             out_path.c_str());
                return 2;
            }
        }
        std::ostream &os = out_path.empty() ? std::cout : file;

        switch (format) {
          case report_io::Format::Text:
            os << "scenario: " << scenarioLine(cfg) << "\n\n";
            report.print(os, "result");
            if (!series.empty()) {
                os << '\n';
                report_io::writeSeriesCsv(os, series);
            }
            break;
          case report_io::Format::Json: {
            report_io::JsonWriter w(os);
            w.beginObject();
            w.key("schema").value("neofog-run-v1");
            w.key("scenario").value(scenarioLine(cfg));
            w.key("seed").value(cfg.seed);
            w.key("report");
            report_io::writeMetricsJson(w, report.snapshot());
            if (!series.empty()) {
                w.key("series");
                report_io::writeSeriesArray(w, series);
            }
            w.endObject();
            os << '\n';
            break;
          }
          case report_io::Format::Csv:
            report.toCsv(os);
            if (!series.empty()) {
                os << '\n';
                report_io::writeSeriesCsv(os, series);
            }
            break;
        }
        if (!out_path.empty())
            std::printf("results -> %s\n", out_path.c_str());
    } catch (const FatalError &err) {
        std::fprintf(stderr, "fatal: %s\n", err.what());
        return 1;
    }
    return 0;
}
