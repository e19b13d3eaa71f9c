#include "sim/rng.hh"

#include <cmath>

#include "sim/logging.hh"

namespace neofog {

namespace {

/** splitmix64 step, used only for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : _state)
        word = splitmix64(s);
    // xoshiro must not be seeded with all zeros; splitmix64 of any seed
    // cannot produce four zero words, but guard anyway.
    if (_state[0] == 0 && _state[1] == 0 && _state[2] == 0 && _state[3] == 0)
        _state[0] = 1;
}

double
Rng::uniform(double lo, double hi)
{
    NEOFOG_ASSERT(lo <= hi, "uniform bounds reversed");
    return lo + (hi - lo) * uniform();
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    NEOFOG_ASSERT(lo <= hi, "uniformInt bounds reversed");
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next());
    // Rejection-free modulo is fine for simulation purposes: span is
    // vastly smaller than 2^64 everywhere we use this.
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::normal()
{
    if (_haveSpareNormal) {
        _haveSpareNormal = false;
        return _spareNormal;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    _spareNormal = r * std::sin(theta);
    _haveSpareNormal = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::exponential(double rate)
{
    NEOFOG_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u = 0.0;
    do {
        u = uniform();
    } while (u <= 1e-300);
    return -std::log(u) / rate;
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace neofog
