#include "balance/balancer.hh"

#include <algorithm>
#include <cmath>

#include "balance/assignment.hh"
#include "sim/logging.hh"

namespace neofog {

void
LbOutcome::reset()
{
    moves.clear();
    messagesExchanged = 0;
    failedRegions = 0;
}

std::vector<int>
LbOutcome::apply(const std::vector<int> &pending) const
{
    std::vector<int> out = pending;
    for (const TaskMove &m : moves) {
        NEOFOG_ASSERT(m.from < out.size() && m.to < out.size(),
                      "task move index out of range");
        NEOFOG_ASSERT(m.tasks >= 0, "negative task move");
        NEOFOG_ASSERT(out[m.from] >= m.tasks,
                      "task move exceeds pending at source");
        out[m.from] -= m.tasks;
        out[m.to] += m.tasks;
    }
    return out;
}

bool
RoundScratch::fill(const std::vector<LbNodeState> &nodes)
{
    const std::size_t n = nodes.size();
    load.resize(n);
    spare.resize(n);
    bool any_receiver = false;
    for (std::size_t i = 0; i < n; ++i) {
        load[i] = nodes[i].pendingTasks;
        spare[i] = nodes[i].alive
            ? std::max(0.0, nodes[i].capacityTasks - load[i]) : 0.0;
        any_receiver |= spare[i] >= 1.0;
    }
    return any_receiver;
}

void
NoBalancer::balanceInto(const std::vector<LbNodeState> &nodes, Rng &rng,
                        LbOutcome &out)
{
    (void)nodes;
    (void)rng;
    out.reset();
}

TreeBalancer::TreeBalancer()
    : TreeBalancer(Config{})
{
}

TreeBalancer::TreeBalancer(const Config &cfg)
    : _cfg(cfg)
{
}

void
TreeBalancer::balanceRegion(const std::vector<LbNodeState> &nodes,
                            std::vector<double> &load, std::size_t lo,
                            std::size_t hi, LbOutcome &out) const
{
    if (hi - lo < std::max<std::size_t>(_cfg.minRegion, 2))
        return;

    const std::size_t mid = lo + (hi - lo) / 2;
    // Up-down scheme: the coordinator gathers the region's info and
    // pushes assignments.  Without it the whole region stays as-is.
    if (!nodes[mid].alive ||
        nodes[mid].capacityTasks < _cfg.coordinatorMinCapacity) {
        ++out.failedRegions;
        return;
    }
    out.messagesExchanged += static_cast<int>(hi - lo); // info gathering

    // Donors: load above capacity.  Receivers: spare capacity.  The
    // up-down scheme moves tasks across the mid boundary only (each
    // recursion level handles its own boundary).
    auto spare = [&](std::size_t i) {
        return nodes[i].alive
            ? std::max(0.0, nodes[i].capacityTasks - load[i]) : 0.0;
    };
    auto excess = [&](std::size_t i) {
        return nodes[i].alive
            ? std::max(0.0, load[i] - nodes[i].capacityTasks) : load[i];
    };

    // Transfer from the more-loaded half to the less-loaded half.
    for (int dir = 0; dir < 2; ++dir) {
        const std::size_t d_lo = dir == 0 ? lo : mid;
        const std::size_t d_hi = dir == 0 ? mid : hi;
        const std::size_t r_lo = dir == 0 ? mid : lo;
        const std::size_t r_hi = dir == 0 ? hi : mid;
        for (std::size_t i = d_lo; i < d_hi; ++i) {
            int avail = static_cast<int>(std::floor(excess(i)));
            if (avail <= 0 || !nodes[i].alive)
                continue;
            for (std::size_t j = r_lo; j < r_hi && avail > 0; ++j) {
                const int room =
                    static_cast<int>(std::floor(spare(j)));
                if (room <= 0)
                    continue;
                const int t = std::min(avail, room);
                load[i] -= t;
                load[j] += t;
                avail -= t;
                out.moves.push_back({i, j, t});
                out.messagesExchanged += 2; // assignment + transfer ack
            }
        }
    }

    balanceRegion(nodes, load, lo, mid, out);
    balanceRegion(nodes, load, mid, hi, out);
}

void
TreeBalancer::balanceInto(const std::vector<LbNodeState> &nodes,
                          Rng &rng, LbOutcome &out)
{
    (void)rng;
    out.reset();
    // Member scratch, every entry rewritten.
    std::vector<double> &load = _load;
    load.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i)
        load[i] = nodes[i].pendingTasks;
    balanceRegion(nodes, load, 0, nodes.size(), out);
}

DistributedBalancer::DistributedBalancer()
    : DistributedBalancer(Config{})
{
}

DistributedBalancer::DistributedBalancer(const Config &cfg)
    : _cfg(cfg)
{
    if (_cfg.neighborWindow < 1)
        fatal("neighbor window must be >= 1");
    if (_cfg.quantaPerUnit <= 0.0)
        fatal("quantaPerUnit must be positive");
}

void
DistributedBalancer::balanceInto(const std::vector<LbNodeState> &nodes,
                                 Rng &rng, LbOutcome &out)
{
    out.reset();
    const std::size_t n = nodes.size();
    // Spare only shrinks within a call, so without a receiver at the
    // start no probe can find one and no round moves a task.
    const bool any_receiver = _scratch.fill(nodes);
    std::vector<double> &load = _scratch.load;
    std::vector<double> &spare = _scratch.spare;
    const auto window = static_cast<std::size_t>(_cfg.neighborWindow);

    auto quantize = [&](double cost) {
        return std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   std::llround(cost * _cfg.quantaPerUnit)));
    };

    for (int round = 0; round < _cfg.maxRounds; ++round) {
        bool moved_any = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (!nodes[i].alive)
                continue;
            const int excess = static_cast<int>(
                std::ceil(load[i] - nodes[i].capacityTasks));
            if (excess <= 0)
                continue;

            // The protocol itself can be interrupted by power failure;
            // the region then skips balancing this interval.
            if (rng.chance(_cfg.interruptChance)) {
                ++out.failedRegions;
                continue;
            }

            // The probe walk below would find no receiver: count its
            // messages without walking.  Nothing moves, so this is the
            // last round.
            if (!any_receiver) {
                out.messagesExchanged += static_cast<int>(
                    std::min(window, i) + std::min(window, n - 1 - i));
                continue;
            }

            // Probe outward: nearest neighbours first (node 4 learns
            // about 3 and 5 before touching node 2).
            std::size_t best_left = n, best_right = n;
            for (int w = 1; w <= _cfg.neighborWindow; ++w) {
                if (best_left == n && i >= static_cast<std::size_t>(w)) {
                    const std::size_t j = i - static_cast<std::size_t>(w);
                    ++out.messagesExchanged;
                    if (nodes[j].alive && spare[j] >= 1.0)
                        best_left = j;
                }
                if (best_right == n &&
                    i + static_cast<std::size_t>(w) < n) {
                    const std::size_t j = i + static_cast<std::size_t>(w);
                    ++out.messagesExchanged;
                    if (nodes[j].alive && spare[j] >= 1.0)
                        best_right = j;
                }
            }
            if (best_left == n && best_right == n)
                continue;

            int to_left = 0, to_right = 0;
            if (best_left == n) {
                to_right = excess;
            } else if (best_right == n) {
                to_left = excess;
            } else {
                // Split with the Algorithm 1 DP: every surplus task
                // costs the target node's (efficiency-scaled) time.
                const std::vector<std::int64_t> a(
                    static_cast<std::size_t>(excess),
                    quantize(nodes[best_left].taskCost));
                const std::vector<std::int64_t> b(
                    static_cast<std::size_t>(excess),
                    quantize(nodes[best_right].taskCost));
                const AssignResult r =
                    assignTasks(a, b, _cfg.maxTimeQuanta);
                if (!r.feasible) {
                    ++out.failedRegions;
                    continue;
                }
                for (Side s : r.assignment) {
                    if (s == Side::Left)
                        ++to_left;
                    else
                        ++to_right;
                }
                out.messagesExchanged += 2; // assignment messages
            }

            auto transfer = [&](std::size_t target, int want) {
                if (target == n || want <= 0)
                    return;
                const int room = static_cast<int>(std::floor(
                    spare[target]));
                const int t = std::min({want, room,
                                        static_cast<int>(load[i])});
                if (t <= 0)
                    return;
                load[i] -= t;
                load[target] += t;
                spare[target] -= t;
                out.moves.push_back({i, target, t});
                ++out.messagesExchanged; // transfer header
                moved_any = true;
            };
            transfer(best_left, to_left);
            transfer(best_right, to_right);
        }
        if (!moved_any)
            break;
    }
}

ClusterBalancer::ClusterBalancer()
    : ClusterBalancer(Config{})
{
}

ClusterBalancer::ClusterBalancer(const Config &cfg)
    : _cfg(cfg)
{
    if (_cfg.clusterSize < 2)
        fatal("cluster size must be >= 2");
}

void
ClusterBalancer::balanceInto(const std::vector<LbNodeState> &nodes,
                             Rng &rng, LbOutcome &out)
{
    (void)rng;
    out.reset();
    const std::size_t n = nodes.size();
    // Member scratch, every entry rewritten.
    std::vector<double> &load = _load;
    load.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        load[i] = nodes[i].pendingTasks;

    for (std::size_t lo = 0; lo < n; lo += _cfg.clusterSize) {
        const std::size_t hi = std::min(n, lo + _cfg.clusterSize);
        // Head election: the alive member with the most capacity.
        std::size_t head = n;
        for (std::size_t i = lo; i < hi; ++i) {
            if (nodes[i].alive &&
                (head == n ||
                 nodes[i].capacityTasks > nodes[head].capacityTasks))
                head = i;
        }
        if (head == n ||
            nodes[head].capacityTasks < _cfg.headMinCapacity) {
            ++out.failedRegions;
            continue;
        }
        out.messagesExchanged += static_cast<int>(hi - lo); // reports

        // Donors hand excess to receivers, within the cluster only.
        for (std::size_t i = lo; i < hi; ++i) {
            if (!nodes[i].alive)
                continue;
            int avail = static_cast<int>(
                std::floor(load[i] - nodes[i].capacityTasks));
            if (avail <= 0)
                continue;
            for (std::size_t j = lo; j < hi && avail > 0; ++j) {
                if (j == i || !nodes[j].alive)
                    continue;
                const int room = static_cast<int>(std::floor(
                    std::max(0.0,
                             nodes[j].capacityTasks - load[j])));
                if (room <= 0)
                    continue;
                const int t = std::min(avail, room);
                load[i] -= t;
                load[j] += t;
                avail -= t;
                out.moves.push_back({i, j, t});
                out.messagesExchanged += 2; // head-mediated transfer
            }
        }
    }
}

} // namespace neofog
