/**
 * @file
 * The benchmark's four workloads and the passes that measure them.
 *
 * Every workload is a closed loop with one client in one process: the
 * next system run starts only when the previous report is written.
 * An invocation runs three kinds of pass over the same scenarios:
 *
 *  - measured (untraced) repetitions until the time budget is spent,
 *    which give the end-to-end metrics as medians over repetitions,
 *    scaled by a calibration kernel timed between their systems;
 *  - one untraced serial reference pass that drives
 *    ChainEngine::runSlot chain by chain, which every other report of
 *    the invocation must equal bit for bit;
 *  - with tracing on, the same serial pass with spans and read-only
 *    probes, plus the workload's own traced passes (threaded slot
 *    windows, in-process partitions with checkpoints), whose reports
 *    are checked against the reference too.
 */

#ifndef NEOFOG_PERFBENCH_WORKLOADS_HH
#define NEOFOG_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fog/system_report.hh"
#include "tracer.hh"

namespace neofog::perfbench {

/** Workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** One invocation of a workload. */
struct Options
{
    std::string workload;
    /** Workload seed; every scenario seed derives from it. */
    std::uint64_t seed = 1;
    /** Time budget of the measured repetitions. */
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for checkpoints and outputs. */
    std::string workDir = ".";
    /** Pinned reports of this workload and seed ("" = none). */
    std::string pinnedPath;
    /**
     * Self-test only: the measured runs use this balancer spec while
     * the reference keeps the workload's, so every measured run must
     * be counted as a mismatch.
     */
    std::string perturbBalancer;
};

/** Named number for the result file. */
using Scalar = std::pair<std::string, double>;

struct Result
{
    /** System runs attempted and failed (threw or mismatched). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Untraced end-to-end medians, in calibrated seconds. */
    std::vector<Scalar> endToEnd;
    /** Per-layer numbers measured in C++ (the rest come from spans). */
    std::vector<Scalar> layers;
    /** The serial reference reports, one per system of a repetition. */
    std::vector<SystemReport> reference;
    /** Notes for the result file (sizes, thread counts). */
    std::vector<std::pair<std::string, std::string>> notes;
};

/** Run one invocation; spans land in @p tracer when it is enabled. */
Result runWorkload(const Options &opt, Tracer &tracer);

/** Write @p reports as a pinned-reports document. */
void writeReports(const std::string &path, const Options &opt,
                  const std::vector<SystemReport> &reports);

/** Read a pinned-reports document written for @p opt's workload/seed. */
std::vector<SystemReport> readReports(const std::string &path,
                                      const Options &opt);

} // namespace neofog::perfbench

#endif // NEOFOG_PERFBENCH_WORKLOADS_HH
