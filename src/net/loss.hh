/**
 * @file
 * Wireless loss model.
 *
 * §4: a 10-day 3-mote rooftop experiment (10-15 m hops) measured a
 * 0.75% packet loss rate, dominated by weather.  The model applies a
 * per-hop success probability (default 99.25%) with an optional
 * weather multiplier so the rain scenarios can degrade links, plus a
 * bounded retry scheme.
 */

#ifndef NEOFOG_NET_LOSS_HH
#define NEOFOG_NET_LOSS_HH

#include <cstdint>

#include "sim/rng.hh"

namespace neofog {

/**
 * Per-hop Bernoulli packet loss with retries: its configuration and
 * its archived State of attempt/loss accounting.  A chain's State
 * lives in its ChainState and its Config in the scenario.
 */
class LossModel
{
  public:
    struct Config
    {
        /** Per-attempt delivery probability between powered nodes. */
        double successRate = 0.9925;
        /** Additional multiplier on the success rate (weather). */
        double weatherFactor = 1.0;
        /** MAC-level retransmissions after a failed attempt.  The
         *  paper models end-to-end success at 99.25% with no retry,
         *  so the default is 0. */
        int maxRetries = 0;

        /** Effective per-attempt success probability. */
        double effectiveRate() const
        { return successRate * weatherFactor; }

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            ar.io("success_rate", successRate);
            ar.io("weather_factor", weatherFactor);
            ar.io("max_retries", maxRetries);
        }
    };

    /** What one delivery with retries cost and whether it arrived. */
    struct Delivery
    {
        int paid;       ///< attempts the sender pays for (1..maxRetries+1)
        bool delivered; ///< whether one of them got through
    };

    /** Attempt and loss accounting: what a snapshot keeps. */
    struct State
    {
        std::uint64_t attempts = 0;
        std::uint64_t losses = 0;

        /** Single-attempt success draw on a link of @p cfg. */
        bool attempt(const Config &cfg, Rng &rng);

        /**
         * Deliver with retries: attempt until one succeeds or all
         * cfg.maxRetries+1 fail.  A failed delivery paid for every
         * attempt.
         */
        Delivery deliver(const Config &cfg, Rng &rng);

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            ar.io("attempts", attempts);
            ar.io("losses", losses);
        }
    };

    /**
     * Fatal on a config no link can run: a success rate or weather
     * factor outside (0, 1], or a negative retry count.
     */
    static void check(const Config &cfg);
};

// Every transfer of the slot path draws through these, from the fog
// library, so they live here, inline (see DESIGN.md, "Performance:
// hot paths").

inline bool
LossModel::State::attempt(const Config &cfg, Rng &rng)
{
    ++attempts;
    const bool ok = rng.chance(cfg.effectiveRate());
    if (!ok)
        ++losses;
    return ok;
}

inline LossModel::Delivery
LossModel::State::deliver(const Config &cfg, Rng &rng)
{
    for (int tries = 1; tries <= cfg.maxRetries + 1; ++tries) {
        if (attempt(cfg, rng))
            return {tries, true};
    }
    return {cfg.maxRetries + 1, false};
}

} // namespace neofog

#endif // NEOFOG_NET_LOSS_HH
