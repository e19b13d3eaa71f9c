#include "dist/partition.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/thread_pool.hh"
#include "snapshot/archive.hh"

namespace neofog::dist {

std::vector<ChainRange>
partitionChains(std::size_t chains, std::size_t workers)
{
    if (workers == 0)
        fatal("partitionChains: worker count must be >= 1");
    std::vector<ChainRange> ranges(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        ranges[w].lo = w * chains / workers;
        ranges[w].hi = (w + 1) * chains / workers;
    }
    return ranges;
}

std::size_t
clampWorkers(long long requested, std::size_t chains)
{
    const auto hw = static_cast<long long>(ThreadPool::hardwareThreads());
    const long long cap = std::max<long long>(256, 2 * hw);
    long long workers = requested;
    if (workers == 0) {
        workers = hw;
    } else if (workers < 0) {
        warn("--workers ", requested, " is negative; running 1 worker");
        workers = 1;
    } else if (workers > cap) {
        warn("--workers ", requested, " clamped to ", cap,
             " (results never depend on the worker count)");
        workers = cap;
    }
    // More workers than chains buys nothing but fork overhead.
    if (chains > 0 && workers > static_cast<long long>(chains))
        workers = static_cast<long long>(chains);
    return static_cast<std::size_t>(std::max<long long>(1, workers));
}

std::uint64_t
expectedRotationDigest(const ScenarioConfig &cfg, const ChainRange &range,
                       std::int64_t slot)
{
    // Mirror ChainEngine::updateMembership: slots 1..slot-1 rotate a
    // mux>1 chain whenever slot_index % every == 0, and the rotation
    // is an unbounded increment.
    std::int64_t rotation = 0;
    if (cfg.membershipUpdateInterval > 0 && cfg.multiplexing > 1 &&
        slot > 0) {
        const std::int64_t every =
            cfg.membershipUpdateInterval / cfg.slotInterval;
        if (every > 0)
            rotation = (slot - 1) / every;
    }
    std::string bytes;
    for (std::size_t c = range.lo; c < range.hi; ++c) {
        snapshot::appendLe64(bytes, static_cast<std::uint64_t>(c));
        snapshot::appendLe32(bytes, static_cast<std::uint32_t>(rotation));
    }
    return snapshot::fnv1a(bytes);
}

std::string
workerSnapshotDir(const std::string &base, std::size_t w)
{
    return base + "/worker" + std::to_string(w);
}

} // namespace neofog::dist
