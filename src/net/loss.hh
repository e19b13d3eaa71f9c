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
 * Per-hop Bernoulli packet loss with retries.
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

    LossModel();
    explicit LossModel(const Config &cfg);

    /** Single-attempt success draw. */
    bool attempt(Rng &rng) const;

    /** What one delivery with retries cost and whether it arrived. */
    struct Delivery
    {
        int paid;       ///< attempts the sender pays for (1..maxRetries+1)
        bool delivered; ///< whether one of them got through
    };

    /**
     * Deliver with retries: attempt until one succeeds or all
     * maxRetries+1 fail.  A failed delivery paid for every attempt.
     */
    Delivery deliver(Rng &rng) const;

    /** Effective per-attempt success probability. */
    double effectiveRate() const;

    std::uint64_t attemptsTotal() const { return _attempts; }
    std::uint64_t lossesTotal() const { return _losses; }

    const Config &config() const { return _cfg; }

    /** Snapshot support: the accounting (config is rebuilt). */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("attempts", _attempts);
        ar.io("losses", _losses);
    }

  private:
    Config _cfg; // neofog-lint: allow(snapshot): construction-time configuration, rebuilt from the scenario on resume; only the attempt/loss accounting mutates
    mutable std::uint64_t _attempts = 0;
    mutable std::uint64_t _losses = 0;
};

// Every transfer of the slot path draws through these, from the fog
// library, so they live here, inline (see DESIGN.md, "Performance:
// hot paths").

inline double
LossModel::effectiveRate() const
{
    return _cfg.successRate * _cfg.weatherFactor;
}

inline bool
LossModel::attempt(Rng &rng) const
{
    ++_attempts;
    const bool ok = rng.chance(effectiveRate());
    if (!ok)
        ++_losses;
    return ok;
}

inline LossModel::Delivery
LossModel::deliver(Rng &rng) const
{
    for (int tries = 1; tries <= _cfg.maxRetries + 1; ++tries) {
        if (attempt(rng))
            return {tries, true};
    }
    return {_cfg.maxRetries + 1, false};
}

} // namespace neofog

#endif // NEOFOG_NET_LOSS_HH
