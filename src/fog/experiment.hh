/**
 * @file
 * Multi-seed experiment runner with statistical aggregation.
 *
 * A single run of a stochastic scenario is an anecdote; the paper
 * itself averages five power profiles per figure.  ExperimentRunner
 * replays one scenario across many seeds and aggregates every metric
 * the SystemReport registry declares into mean/stddev/min/max
 * summaries, so users can put error bars on their results and compare
 * systems with confidence.  The aggregate is registry-derived: adding
 * a metric to SystemReport::metrics() automatically aggregates it.
 */

#ifndef NEOFOG_FOG_EXPERIMENT_HH
#define NEOFOG_FOG_EXPERIMENT_HH

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "fog/fog_system.hh"
#include "fog/scenario.hh"
#include "sim/stats.hh"

namespace neofog {

/**
 * How to replay a scenario across seeds.  Seeds run one after another
 * in seed order; ScenarioConfig::threads parallelizes each run's
 * chain loop (FogSystem::runWindow).
 */
struct RunOptions
{
    /** Number of seeds: baseSeed, baseSeed+1, ... baseSeed+runs-1. */
    int runs = 1;
    std::uint64_t baseSeed = 1;
};

/**
 * Statistical summary of every registry metric across seeds: a
 * ScalarStat per SystemReport metric (stored and derived), sampled in
 * seed order.
 */
struct AggregateReport
{
    int runs = 0;

    /** The individual reports, in seed order. */
    std::vector<SystemReport> reports;

    /**
     * One ScalarStat per SystemReport::metrics() entry, in
     * declaration order.
     */
    std::vector<ScalarStat> stats;

    /**
     * Summary of one metric by registry name (e.g.
     * "total_processed", "yield").  Throws FatalError for unknown
     * names.
     */
    const ScalarStat &stat(std::string_view metric) const;

    /** Print "mean +- stddev [min, max]" rows (registry-derived). */
    void print(std::ostream &os, const std::string &label) const;

    /** neofog-aggregate-v1 JSON document. */
    void toJson(std::ostream &os,
                const std::string &label = "aggregate") const;

    /** CSV: one row per metric (name,count,mean,stddev,min,max). */
    void toCsv(std::ostream &os) const;
};

/**
 * Deterministic multi-seed replay of a scenario.
 */
class ExperimentRunner
{
  public:
    /** Run @p cfg across the seeds @p opt describes and aggregate. */
    static AggregateReport runSeeds(const ScenarioConfig &cfg,
                                    const RunOptions &opt);

    /**
     * Two-system comparison across the same seeds: returns the
     * per-seed ratio statistics of totalProcessed (b over a).
     */
    static ScalarStat compareTotals(const ScenarioConfig &a,
                                    const ScenarioConfig &b,
                                    const RunOptions &opt);
};

} // namespace neofog

#endif // NEOFOG_FOG_EXPERIMENT_HH
