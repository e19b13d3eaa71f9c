/**
 * @file
 * Hot-path microbenchmarks for the prefix-sum energy-trace cache.
 *
 * Two sections:
 *  - integrate: slot-shaped windows/sec for {cached, reference} x
 *    {constant, piecewise, interpolated, rain composite, forest}; the
 *    reference is the stepped integrator (TraceCursor), which is how
 *    every forest, bridge and mountain node integrates its own trace;
 *  - a 1/2/4-thread bit-identity check of the headline low-power
 *    (fig 13) scenario with the shared cache.
 *
 * Options:
 *   --hours X   thread-check horizon override (default 1.0)
 *   --smoke     tiny run for CI: 0.25 h horizon, scaled-down window
 *               counts, and schema validation of the emitted JSON
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "energy/power_trace.hh"
#include "energy/trace_cache.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/logging.hh"
#include "sim/report_io.hh"
#include "sim/rng.hh"

using namespace neofog;
using namespace neofog::bench;
using namespace neofog::literals;

namespace {

double
seconds(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The integration subjects of the micro section. */
struct MicroTrace
{
    const char *label;
    std::shared_ptr<const PowerTrace> trace;
};

std::vector<MicroTrace>
microTraces(Tick span)
{
    std::vector<MicroTrace> set;
    set.push_back({"constant", std::make_shared<ConstantTrace>(2.6_mW)});
    Rng rng(17);
    std::vector<PiecewiseTrace::Segment> segs;
    Tick at = 0;
    while (at < span + kMin) {
        segs.push_back({at, Power::fromMilliwatts(rng.uniform(0.0, 8.0))});
        at += ticksFromSeconds(rng.uniform(3.0, 90.0));
    }
    set.push_back({"piecewise", std::make_shared<PiecewiseTrace>(segs)});
    std::vector<InterpolatedTrace::Knot> knots;
    at = 0;
    while (at < span + kMin) {
        knots.push_back({at, Power::fromMilliwatts(rng.uniform(0.0, 5.0))});
        at += ticksFromSeconds(rng.uniform(20.0, 120.0));
    }
    set.push_back(
        {"interpolated", std::make_shared<InterpolatedTrace>(knots)});
    // The headline composite: rain-spell schedule x diurnal envelope.
    set.push_back({"rain composite",
                   std::shared_ptr<const PowerTrace>(
                       traces::makeRainUnitStream(7, span + kMin))});
    // A per-node trace: fleck/shade segments x its own day envelope.
    Rng node(23);
    set.push_back({"forest",
                   std::shared_ptr<const PowerTrace>(
                       traces::makeForestTrace(node, span + kMin,
                                               2.6_mW))});
    return set;
}

/**
 * Integrate @p windows slot-shaped (12 s aligned) windows sweeping the
 * span, via either the cache or the stepped reference.
 * @return wall-clock seconds.
 */
double
timeWindows(const PowerTrace &trace, Tick span, long windows,
            bool stepped, double &checksum)
{
    const Tick slot = 12 * kSec;
    const Tick wrap = (span / slot) * slot;
    double acc = 0.0;
    const auto start = std::chrono::steady_clock::now();
    Tick from = 0;
    for (long i = 0; i < windows; ++i) {
        const Tick to = from + slot;
        acc += stepped ? trace.integrateStepped(from, to).joules()
                       : trace.integrate(from, to).joules();
        from = to < wrap ? to : 0;
    }
    const double secs = seconds(start);
    checksum += acc; // defeat dead-code elimination
    return secs;
}

/** Re-read the emitted JSON and check it against the schema. */
int
validateSink(const ResultSink &sink)
{
    std::ifstream in(sink.path());
    if (!in) {
        err("perf_hotpath: cannot re-read %s\n", sink.path().c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        const auto doc = report_io::parseJson(text.str());
        const std::string schema_err = report_io::validateBenchJson(doc);
        if (!schema_err.empty()) {
            err("perf_hotpath: schema violation: %s\n",
                schema_err.c_str());
            return 1;
        }
    } catch (const FatalError &e) {
        err("perf_hotpath: emitted invalid JSON: %s\n", e.what());
        return 1;
    }
    out("perf_hotpath: %s validates against neofog-bench-v1\n",
        sink.path().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    double hours = 1.0;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
            hours = 0.25;
        } else if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
            hours = std::atof(argv[++i]);
        } else {
            err("usage: %s [--hours X] [--smoke]\n", argv[0]);
            return 2;
        }
    }

    ResultSink sink("perf_hotpath");
    double checksum = 0.0;

    // ---- Section 1: slot-window integration micro ------------------
    header("Energy integration: prefix-sum cache vs stepped reference");
    const Tick span = 2 * kHour;
    const long windows = smoke ? 20'000 : 200'000;
    Table t1({16, 16, 16, 12});
    t1.row({"Trace", "Ref win/s", "Cached win/s", "Speedup"});
    t1.separator();
    for (const auto &[label, trace] : microTraces(span)) {
        const auto build = std::chrono::steady_clock::now();
        const CumulativeTrace cache(trace, span);
        const double build_secs = seconds(build);
        const double ref_secs =
            timeWindows(*trace, span, windows, true, checksum);
        const double cache_secs =
            timeWindows(cache, span, windows, false, checksum);
        const double ref_rate = windows / ref_secs;
        const double cache_rate = windows / cache_secs;
        t1.row({label, fmt(ref_rate / 1e6, 2) + "M",
                fmt(cache_rate / 1e6, 2) + "M",
                fmt(ref_secs / cache_secs, 1) + "x"});
        const std::string key = keyify(label);
        sink.add(key + "_ref_windows_per_sec", ref_rate);
        sink.add(key + "_cached_windows_per_sec", cache_rate);
        sink.add(key + "_integrate_speedup", ref_secs / cache_secs);
        sink.add(key + "_cache_build_secs", build_secs);
    }

    // ---- Section 2: thread bit-identity with the shared cache ------
    {
        ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
        cfg.chains = smoke ? 10 : 40;
        cfg.horizon = ticksFromSeconds(hours * 3600.0);
        SystemReport serial;
        bool consistent = true;
        for (unsigned threads : {1u, 2u, 4u}) {
            cfg.threads = threads;
            const SystemReport r = FogSystem(cfg).run();
            if (threads == 1)
                serial = r;
            else if (!(r == serial))
                consistent = false;
        }
        out("shared-cache reports bit-identical at 1/2/4 threads: "
            "%s\n",
            consistent ? "yes" : "NO");
        sink.add("reports_consistent", consistent ? 1.0 : 0.0);
        if (!consistent) {
            err("perf_hotpath: thread sweep diverged with the shared "
                "energy cache\n");
            return 1;
        }
    }

    sink.add("checksum", checksum);
    if (smoke)
        sink.note("mode", "smoke");
    if (!sink.write())
        return 1;
    return smoke ? validateSink(sink) : 0;
}
