#include "balance/policies.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace neofog {

namespace {

/** Tasks node @p i cannot fund itself this round (>= 0). */
int
excessAt(const std::vector<double> &load,
         const std::vector<LbNodeState> &nodes, std::size_t i)
{
    if (!nodes[i].alive)
        return 0;
    return std::max(
        0, static_cast<int>(
               std::ceil(load[i] - nodes[i].capacityTasks)));
}

/**
 * Ship up to @p want tasks from @p i to @p j, recording the move and
 * maintaining the load/spare views.  Returns the tasks shipped.
 */
int
ship(std::size_t i, std::size_t j, int want, std::vector<double> &load,
     std::vector<double> &spare, LbOutcome &out)
{
    const int room = static_cast<int>(std::floor(spare[j]));
    const int t =
        std::min({want, room, static_cast<int>(load[i])});
    if (t <= 0)
        return 0;
    load[i] -= t;
    load[j] += t;
    spare[j] -= t;
    out.moves.push_back({i, j, t});
    ++out.messagesExchanged; // transfer header
    return t;
}

} // namespace

GreedyNearestRichBalancer::GreedyNearestRichBalancer()
    : GreedyNearestRichBalancer(Config{})
{
}

GreedyNearestRichBalancer::GreedyNearestRichBalancer(const Config &cfg)
    : _cfg(cfg)
{
    if (_cfg.maxHops < 0)
        fatal("greedy balancer: max_hops must be >= 0");
    if (_cfg.minSpare <= 0.0)
        fatal("greedy balancer: min_spare must be positive");
}

void
GreedyNearestRichBalancer::balanceInto(
    const std::vector<LbNodeState> &nodes, Rng &rng, LbOutcome &out)
{
    (void)rng; // deterministic policy
    out.reset();
    const std::size_t n = nodes.size();
    _scratch.fill(nodes);
    std::vector<double> &load = _scratch.load;
    std::vector<double> &spare = _scratch.spare;

    const std::size_t limit = _cfg.maxHops > 0
        ? static_cast<std::size_t>(_cfg.maxHops) : n;
    for (std::size_t i = 0; i < n; ++i) {
        int excess = excessAt(load, nodes, i);
        if (excess <= 0)
            continue;
        // Ring outward: at each distance the left (sink-side)
        // candidate is tried first, so ties break toward the sink.
        for (std::size_t d = 1; d <= limit && excess > 0; ++d) {
            for (int side = 0; side < 2 && excess > 0; ++side) {
                const bool left = side == 0;
                if (left && i < d)
                    continue;
                if (!left && i + d >= n)
                    continue;
                const std::size_t j = left ? i - d : i + d;
                ++out.messagesExchanged; // state probe
                if (!nodes[j].alive || spare[j] < _cfg.minSpare)
                    continue;
                excess -= ship(i, j, excess, load, spare, out);
            }
        }
    }
}

DelayEnergyBalancer::DelayEnergyBalancer()
    : DelayEnergyBalancer(Config{})
{
}

DelayEnergyBalancer::DelayEnergyBalancer(const Config &cfg)
    : _cfg(cfg)
{
    if (_cfg.v < 0.0)
        fatal("delay-energy balancer: v must be >= 0");
    if (_cfg.window < 1)
        fatal("delay-energy balancer: window must be >= 1");
    if (_cfg.hopCost < 0.0)
        fatal("delay-energy balancer: hop_cost must be >= 0");
}

void
DelayEnergyBalancer::balanceInto(const std::vector<LbNodeState> &nodes,
                                 Rng &rng, LbOutcome &out)
{
    (void)rng; // deterministic policy
    out.reset();
    const std::size_t n = nodes.size();
    _scratch.fill(nodes);
    std::vector<double> &load = _scratch.load;
    std::vector<double> &spare = _scratch.spare;

    const auto w = static_cast<std::size_t>(_cfg.window);
    for (std::size_t i = 0; i < n; ++i) {
        if (excessAt(load, nodes, i) <= 0)
            continue;
        // One round of state probes across the window, then tasks
        // move one at a time so every score sees current backlogs.
        for (std::size_t d = 1; d <= w; ++d) {
            if (i >= d)
                ++out.messagesExchanged;
            if (i + d < n)
                ++out.messagesExchanged;
        }
        while (excessAt(load, nodes, i) > 0) {
            std::size_t best = n;
            double best_score = 0.0;
            for (std::size_t d = 1; d <= w; ++d) {
                for (int side = 0; side < 2; ++side) {
                    const bool leftward = side == 0;
                    if (leftward && i < d)
                        continue;
                    if (!leftward && i + d >= n)
                        continue;
                    const std::size_t j = leftward ? i - d : i + d;
                    if (!nodes[j].alive || spare[j] < 1.0)
                        continue;
                    // Unserved backlogs: what each queue holds beyond
                    // what the node can fund itself this round.
                    const double qi =
                        load[i] - nodes[i].capacityTasks;
                    const double qj =
                        load[j] - nodes[j].capacityTasks;
                    const double drift = qi - qj - 1.0;
                    const double penalty =
                        _cfg.v * (_cfg.hopCost *
                                      static_cast<double>(d) +
                                  nodes[j].taskCost);
                    const double score = drift - penalty;
                    // Strict > keeps the near/left preference of the
                    // fixed probe order on exact ties.
                    if (best == n || score > best_score) {
                        best = j;
                        best_score = score;
                    }
                }
            }
            if (best == n || best_score <= 0.0)
                break;
            if (ship(i, best, 1, load, spare, out) == 0)
                break;
        }
    }
}

RfCostAwareBalancer::RfCostAwareBalancer()
    : RfCostAwareBalancer(Config{})
{
}

RfCostAwareBalancer::RfCostAwareBalancer(const Config &cfg)
    : _cfg(cfg)
{
    if (_cfg.alpha < 0.0)
        fatal("rf balancer: alpha must be >= 0");
    if (_cfg.hopCost < 0.0)
        fatal("rf balancer: hop_cost must be >= 0");
    if (_cfg.budget <= 0.0)
        fatal("rf balancer: budget must be positive");
    if (_cfg.window < 1)
        fatal("rf balancer: window must be >= 1");
}

void
RfCostAwareBalancer::balanceInto(const std::vector<LbNodeState> &nodes,
                                 Rng &rng, LbOutcome &out)
{
    (void)rng; // deterministic policy
    out.reset();
    const std::size_t n = nodes.size();
    _scratch.fill(nodes);
    std::vector<double> &load = _scratch.load;
    std::vector<double> &spare = _scratch.spare;

    const auto w = static_cast<std::size_t>(_cfg.window);
    const auto radio = [this](std::size_t dist) {
        return _cfg.hopCost *
               std::pow(static_cast<double>(dist), _cfg.alpha);
    };
    for (std::size_t i = 0; i < n; ++i) {
        int excess = excessAt(load, nodes, i);
        if (excess <= 0)
            continue;
        for (std::size_t d = 1; d <= w; ++d) {
            if (i >= d)
                ++out.messagesExchanged;
            if (i + d < n)
                ++out.messagesExchanged;
        }
        while (excess > 0) {
            // Cheapest delivered cost: execution at j plus the
            // distance-scaled radio bill; the budget caps both.
            std::size_t best = n;
            double best_cost = _cfg.budget;
            for (std::size_t d = 1; d <= w; ++d) {
                for (int side = 0; side < 2; ++side) {
                    const bool leftward = side == 0;
                    if (leftward && i < d)
                        continue;
                    if (!leftward && i + d >= n)
                        continue;
                    const std::size_t j = leftward ? i - d : i + d;
                    if (!nodes[j].alive || spare[j] < 1.0)
                        continue;
                    const double cost =
                        nodes[j].taskCost + radio(d);
                    if (best == n ? cost <= best_cost
                                  : cost < best_cost) {
                        best = j;
                        best_cost = cost;
                    }
                }
            }
            if (best == n)
                break;
            const int t = ship(i, best, excess, load, spare, out);
            if (t == 0)
                break;
            excess -= t;
        }
    }
}

} // namespace neofog
