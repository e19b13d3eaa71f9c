/**
 * @file
 * neofog_perfbench: one invocation of one benchmark workload.
 *
 *   neofog_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --out DIR [--pinned FILE] [--perturb-balancer SPEC]
 *
 * Writes into DIR: BENCH_perfbench.json (ResultSink: run counts,
 * end-to-end medians, per-layer numbers measured here), reports.json
 * (the serial reference reports, in the format of the pinned files)
 * and, when tracing, spans.csv.  perfbench/run.py builds this binary,
 * runs it and turns those files into the benchmark's result line.
 * Exit codes: 0 done, 1 failed, 2 usage error.
 */

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench_util.hh"
#include "workloads.hh"

namespace {

using namespace neofog;
using namespace neofog::perfbench;

struct UsageError
{
    std::string what;
};

/** Strict unsigned decimal (no sign, no suffix, no overflow). */
std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() || text.size() > 20 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        throw UsageError{flag + " needs a non-negative integer, got '" +
                         text + "'"};
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        throw UsageError{flag + " is out of range: '" + text + "'"};
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    bool have_out = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw UsageError{"missing value after " + flag};
        const std::string value = argv[++i];
        if (flag == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end())
                throw UsageError{"unknown workload '" + value + "'"};
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            const std::uint64_t s = parseUnsigned(flag, value);
            if (s < 1 || s > 600)
                throw UsageError{"--seconds must be 1..600"};
            opt.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw UsageError{"--trace takes 0 or 1"};
            opt.trace = value == "1";
            have_trace = true;
        } else if (flag == "--out") {
            opt.workDir = value;
            have_out = true;
        } else if (flag == "--pinned") {
            opt.pinnedPath = value;
        } else if (flag == "--perturb-balancer") {
            opt.perturbBalancer = value;
        } else {
            throw UsageError{"unknown flag " + flag};
        }
    }
    if (opt.workload.empty() || !have_seed || !have_seconds ||
        !have_trace || !have_out)
        throw UsageError{"--workload, --seed, --seconds, --trace and "
                         "--out are required"};
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const UsageError &e) {
        bench::err("neofog_perfbench: %s\n"
                   "usage: neofog_perfbench --workload NAME --seed N "
                   "--seconds S --trace 0|1 --out DIR [--pinned FILE] "
                   "[--perturb-balancer SPEC]\n",
                   e.what.c_str());
        return 2;
    }

    try {
        std::filesystem::create_directories(opt.workDir);
        Tracer tracer(opt.trace);
        const Result result = runWorkload(opt, tracer);
        writeReports(opt.workDir + "/reports.json", opt,
                     result.reference);
        if (opt.trace)
            tracer.write(opt.workDir + "/spans.csv");

        ::setenv("NEOFOG_BENCH_DIR", opt.workDir.c_str(), 1);
        bench::ResultSink sink("perfbench");
        sink.add("attempted", static_cast<double>(result.attempted));
        sink.add("failed", static_cast<double>(result.failed));
        for (const auto &[name, value] : result.endToEnd)
            sink.add(name, value);
        for (const auto &[name, value] : result.layers)
            sink.add(name, value);
        for (const auto &[key, value] : result.notes)
            sink.note(key, value);
        return sink.write() ? 0 : 1;
    } catch (const std::exception &e) {
        bench::err("neofog_perfbench: %s: %s\n", opt.workload.c_str(),
                   e.what());
        return 1;
    }
}
