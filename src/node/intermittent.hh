/**
 * @file
 * Fine-grained intermittent-execution simulator.
 *
 * The system-level FogSystem treats a fog task as a single
 * energy/time quantity; this module models what actually happens
 * *inside* an activation on unstable power (§2.2): the node's small
 * storage charges from the ambient trace, the processor runs while the
 * supply holds, and on each power failure
 *
 *  - an NVP pays a short backup, keeps its architectural state in NV
 *    flip-flops, and resumes after a 7-32 us restore;
 *  - a VP loses everything since its last *completed* task segment
 *    and must re-execute (plus a full restart).
 *
 * Running both processors on the same trace reproduces the paper's
 * cited result that NVPs make 2.2x-5x more forward progress than VPs
 * under the same intermittent income (Ma et al. [47]), with the ratio
 * growing as power failures become more frequent.
 */

#ifndef NEOFOG_NODE_INTERMITTENT_HH
#define NEOFOG_NODE_INTERMITTENT_HH

#include <cstdint>

#include "energy/capacitor.hh"
#include "energy/frontend.hh"
#include "energy/power_trace.hh"
#include "hw/processor.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/**
 * One intermittent execution experiment.
 */
class IntermittentExecution
{
  public:
    struct Config
    {
        /** On-node energy storage (small: frequent power cycles). */
        SuperCapacitor::Config cap{
            Energy::fromMicrojoules(500.0),
            Energy::zero(),
            Power::fromMicrowatts(2.0),
        };
        /** Front end feeding the storage from the ambient trace. */
        FrontEnd::Config frontend{};
        /** Turn-on threshold (hysteresis high). */
        Energy onThreshold = Energy::fromMicrojoules(350.0);
        /** Brown-out threshold (hysteresis low). */
        Energy offThreshold = Energy::fromMicrojoules(50.0);
        /**
         * Volatile checkpoint granularity: a VP commits progress only
         * at segment boundaries; work inside an interrupted segment is
         * re-executed.  (An NVP is insensitive to this.)  Must be
         * positive.
         */
        std::uint64_t taskSegmentInstructions = 20'000;
        /** Simulation step. */
        Tick step = 1 * kMs;
    };

    /** Outcome of running one processor over the horizon. */
    struct Result
    {
        /** Committed forward progress. */
        std::uint64_t instructionsCompleted = 0;
        /** Instructions executed then lost to power failure (VP). */
        std::uint64_t instructionsWasted = 0;
        /** Number of power-failure (brown-out) events. */
        int powerCycles = 0;
        /** Time spent actually executing. */
        Tick activeTime = 0;
        /** Time spent in backup/restore/restart overhead. */
        Tick overheadTime = 0;
        /** Ambient energy seen over the horizon. */
        Energy harvested;
        /** Energy spent executing (committed + wasted + overhead). */
        Energy spent;

        /** Committed instructions per second of horizon. */
        double
        progressRate(Tick horizon) const
        {
            return static_cast<double>(instructionsCompleted) /
                   secondsFromTicks(horizon);
        }
    };

    /**
     * Run @p cpu against @p trace for @p horizon in fixed steps of
     * Config::step (the last one may be partial).  Fatal on reversed
     * thresholds, a non-positive step, or a zero task segment.
     *
     * @param cpu Processor part (a VP or an NVP).
     * @param trace Ambient power income.
     * @param horizon Simulated duration.
     * @param cfg Storage/threshold configuration.
     */
    static Result run(const Processor &cpu, const PowerTrace &trace,
                      Tick horizon, const Config &cfg);

    /** run() with the default configuration. */
    static Result run(const Processor &cpu, const PowerTrace &trace,
                      Tick horizon);

    /**
     * Convenience: the NVP/VP forward-progress ratio on one trace —
     * the quantity the paper quotes as 2.2x-5x.
     */
    static double progressRatio(const PowerTrace &trace, Tick horizon,
                                const Config &cfg);

    /** progressRatio() with the default configuration. */
    static double progressRatio(const PowerTrace &trace, Tick horizon);
};

} // namespace neofog

#endif // NEOFOG_NODE_INTERMITTENT_HH
