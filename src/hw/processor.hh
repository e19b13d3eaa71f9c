/**
 * @file
 * Processor parts: volatile MCU vs nonvolatile processor (NVP).
 *
 * Constants follow the paper's measured platform (§4): an 8051-class
 * core at 1 MHz drawing 0.209 mW.  The 8051 takes 12 clocks per machine
 * cycle, which yields 2.508 nJ per instruction — exactly the per-
 * instruction energy implied by Table 2 (e.g. bridge health: 545
 * instructions -> 1366.86 nJ).
 *
 * A volatile processor (VP) loses all state at power failure and pays a
 * full restart (~300 us) plus software re-initialization of peripherals.
 * An NVP checkpoints into NV flip-flops on power failure and restores in
 * 7 us (FIOS parallel-restore parts) to 32 us (NOS parts), making
 * intermittent execution reliable.  The Spendthrift policy [49] further
 * scales frequency/resources to the incoming power level.
 *
 * A part is a value: its constants plus closed-form costs.  One
 * factory per paper part builds it.
 */

#ifndef NEOFOG_HW_PROCESSOR_HH
#define NEOFOG_HW_PROCESSOR_HH

#include <algorithm>
#include <cstdint>
#include <optional>

#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/** Per-instruction energy implied by Table 2 (nJ). */
inline constexpr double kNvpInstructionEnergyNj = 2.508;

/** Spendthrift [49] frequency & resource scaling policy. */
struct SpendthriftPolicy
{
    /** Income power below which the policy is at max benefit. */
    Power lowIncome = Power::fromMilliwatts(0.5);
    /** Income power above which the policy adds no benefit. */
    Power highIncome = Power::fromMilliwatts(10.0);
    /** Energy-conversion benefit at/below lowIncome. */
    double maxBenefit = 1.6;
    /** Benefit at/above highIncome. */
    double minBenefit = 1.0;

    /** Fatal on reversed corner points or benefits not max >= min >= 1. */
    void validate() const;

    /**
     * Multiplicative efficiency benefit for computing under the given
     * income power: the fraction of nominal compute energy actually
     * spent is 1/benefit.  Interpolates linearly between the corner
     * points.
     */
    double benefit(Power income) const;

    /**
     * Frequency scaling factor chosen for the income level, in (0, 1]:
     * low income -> lower frequency (less static waste per op).
     */
    double frequencyScale(Power income) const;
};

/** One processor part: the §4 constants and their closed-form costs. */
struct Processor
{
    double frequencyHz = 1.0e6;
    Power activePower = Power::fromMilliwatts(0.209);
    /** Clocks per machine cycle / instruction (8051: 12). */
    double cyclesPerInstruction = 12.0;

    /** Whether state survives power failure. */
    bool nonvolatile = false;
    /** Time to become operational: the VP's restart, an NVP's restore. */
    Tick wakeLatency = 0;
    /**
     * Wake energy beyond active power over wakeLatency: the VP reloads
     * its configuration image from external flash on every boot; an
     * NVP restores from integrated NV flip-flops.
     */
    Energy wakeExtraEnergy;
    /** Time to checkpoint state at power failure (0 for a VP). */
    Tick backupLatency = 0;
    /** Energy of one distributed NV backup (0 for a VP). */
    Energy backupEnergy;
    /** The NVP's Spendthrift policy; a VP has none. */
    std::optional<SpendthriftPolicy> spendthrift;

    /** Volatile MCU in NOS style: 300 us restart + 150 uJ reload. */
    static Processor volatileMcu(double mhz = 1.0);
    /** NOS-mode NVP: 32 us restore, with Spendthrift. */
    static Processor nosNvp(double mhz = 1.0);
    /** FIOS NV-mote NVP: 7 us parallel restore, with Spendthrift. */
    static Processor fiosNvp(double mhz = 1.0);

    /** Energy spent becoming operational. */
    Energy wakeEnergy() const;

    /** Execution time of @p instructions at nominal frequency. */
    Tick computeTime(std::uint64_t instructions) const;

    /** Energy of executing @p instructions at nominal settings. */
    Energy computeEnergy(std::uint64_t instructions) const;

    /**
     * Energy of executing @p instructions while harvesting @p income:
     * nominal energy divided by the Spendthrift benefit, or the
     * nominal energy without Spendthrift.
     */
    Energy effectiveComputeEnergy(std::uint64_t instructions,
                                  Power income) const;
};

// The compute costs below run once per node-slot from the node
// library, so they live here, inline (see DESIGN.md, "Performance:
// hot paths").

inline double
SpendthriftPolicy::benefit(Power income) const
{
    if (income <= lowIncome)
        return maxBenefit;
    if (income >= highIncome)
        return minBenefit;
    const double t = (income.watts() - lowIncome.watts()) /
                     (highIncome.watts() - lowIncome.watts());
    return maxBenefit + t * (minBenefit - maxBenefit);
}

inline Tick
Processor::computeTime(std::uint64_t instructions) const
{
    const double seconds = static_cast<double>(instructions) *
                           cyclesPerInstruction / frequencyHz;
    return std::max<Tick>(ticksFromSeconds(seconds), 0);
}

inline Energy
Processor::computeEnergy(std::uint64_t instructions) const
{
    // Computed analytically (not via integer ticks) so the per-
    // instruction energy is exact at any clock frequency.
    const double seconds = static_cast<double>(instructions) *
                           cyclesPerInstruction / frequencyHz;
    return Energy::fromJoules(activePower.watts() * seconds);
}

inline Energy
Processor::effectiveComputeEnergy(std::uint64_t instructions,
                                  Power income) const
{
    const Energy nominal = computeEnergy(instructions);
    return spendthrift ? nominal / spendthrift->benefit(income) : nominal;
}

} // namespace neofog

#endif // NEOFOG_HW_PROCESSOR_HH
