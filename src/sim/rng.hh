/**
 * @file
 * Deterministic random number generation for reproducible simulations.
 *
 * Rng wraps xoshiro256** seeded via splitmix64.  Every stochastic
 * component of the simulator draws from an Rng stream forked from the
 * experiment's root seed, so a run is fully determined by one integer.
 */

#ifndef NEOFOG_SIM_RNG_HH
#define NEOFOG_SIM_RNG_HH

#include <array>
#include <cstdint>

namespace neofog {

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 */
class Rng
{
  public:
    /** Seed deterministically from a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9E0F06DEADBEEFULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Box-Muller (mean 0, stddev 1). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential with the given rate (lambda). */
    double exponential(double rate);

    /** Bernoulli trial: true with probability p. */
    bool chance(double p);

    /**
     * Fork an independent child stream.  The child is seeded from this
     * stream's output, so forking order matters but results stay
     * deterministic for a fixed root seed.
     */
    Rng fork();

    /**
     * Snapshot support (see src/snapshot/): the stream position is the
     * whole state, plus the cached Box-Muller spare.
     */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("s0", _state[0]);
        ar.io("s1", _state[1]);
        ar.io("s2", _state[2]);
        ar.io("s3", _state[3]);
        ar.io("have_spare_normal", _haveSpareNormal);
        ar.io("spare_normal", _spareNormal);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> _state{};
    bool _haveSpareNormal = false;
    double _spareNormal = 0.0;
};

// Every stochastic draw of the slot path goes through these three, from
// other libraries, so they live here, inline (see DESIGN.md,
// "Performance: hot paths").

inline std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
    const std::uint64_t t = _state[1] << 17;

    _state[2] ^= _state[0];
    _state[3] ^= _state[1];
    _state[1] ^= _state[2];
    _state[0] ^= _state[3];
    _state[2] ^= t;
    _state[3] = rotl(_state[3], 45);

    return result;
}

inline double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

inline bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

} // namespace neofog

#endif // NEOFOG_SIM_RNG_HH
