/**
 * @file
 * Offloading policies beyond the paper's Fig 6 trio — the competing
 * points of the fog load-balancing design space the policy tournament
 * (bench/ablation_policies) ranks against Algorithm 1:
 *
 *  - GreedyNearestRichBalancer: each overloaded node ships to the
 *    closest node with spare capacity, probing outward symmetrically;
 *  - DelayEnergyBalancer: online drift-plus-penalty control in the
 *    Lyapunov style of delay-energy joint optimization for dynamic
 *    fog systems (Alenizi & Rana) — queue-backlog relief is traded
 *    against the energy bill of each candidate shipment through a
 *    tunable penalty weight V;
 *  - RfCostAwareBalancer: radio-front-end-aware offloading in the
 *    style of Kryszkiewicz et al. — the per-shipment transfer cost
 *    grows with distance (hop_cost * dist^alpha), so far receivers
 *    must beat their radio energy bill to win a task.
 *
 * All three are deterministic given the per-round node states: they
 * never draw from the RNG stream, so their thread-count bit-identity
 * follows directly from the ChainEngine determinism model.
 */

#ifndef NEOFOG_BALANCE_POLICIES_HH
#define NEOFOG_BALANCE_POLICIES_HH

#include "balance/balancer.hh"

namespace neofog {

/**
 * Greedy nearest-rich offloading: every overloaded node probes
 * neighbours at distance 1, 2, ... (left side first at equal
 * distance, toward the sink) and ships as much of its excess as the
 * first rich node found at each distance can absorb.
 */
class GreedyNearestRichBalancer : public LoadBalancer
{
  public:
    struct Config
    {
        /** Probe radius; 0 means the whole chain. */
        int maxHops = 0;
        /** Spare capacity a node needs to count as rich. */
        double minSpare = 1.0;
    };

    GreedyNearestRichBalancer();
    explicit GreedyNearestRichBalancer(const Config &cfg);

    void balanceInto(const std::vector<LbNodeState> &nodes, Rng &rng,
                     LbOutcome &out) override;
    std::string name() const override { return "greedy-nearest-rich"; }

    const Config &config() const { return _cfg; }

  private:
    Config _cfg;
    RoundScratch _scratch;
};

/**
 * Delay-energy online balancer (Lyapunov drift-plus-penalty).  Each
 * surplus task at node i considers every receiver j within the
 * probe window and scores
 *
 *     score(i, j) = (q_i - q_j - 1)                       // -drift
 *                 - v * (hop_cost * dist(i,j) + cost_j)   // penalty
 *
 * where q_x = load_x - capacity_x is the *unserved* backlog: the
 * queue a node cannot fund from its own harvested energy this round.
 * (Raw queue lengths would freeze the policy in harvesting regimes
 * where every queue holds at most a task or two — a task at a dead
 * node and an empty-but-rich neighbor differ in q by the neighbor's
 * whole spare capacity, which is exactly the drift relief the move
 * buys.)  The drift relief is discounted by V times the energy bill
 * (shipment radio cost plus execution at j's efficiency).  Tasks move
 * one at a time to the current best positive-score receiver, so the
 * backlog terms stay current as the round progresses; V = 0 reduces
 * to pure backlog balancing, large V freezes all far shipments.
 */
class DelayEnergyBalancer : public LoadBalancer
{
  public:
    struct Config
    {
        /** Penalty weight V: energy cost per unit of drift relief. */
        double v = 0.5;
        /** Probe window on each side. */
        int window = 4;
        /** Radio energy per task per hop, in task-cost units. */
        double hopCost = 0.1;
    };

    DelayEnergyBalancer();
    explicit DelayEnergyBalancer(const Config &cfg);

    void balanceInto(const std::vector<LbNodeState> &nodes, Rng &rng,
                     LbOutcome &out) override;
    std::string name() const override { return "delay-energy"; }

    const Config &config() const { return _cfg; }

  private:
    Config _cfg;
    RoundScratch _scratch;
};

/**
 * RF-cost-aware offloading: shipping a task over dist hops costs
 * hop_cost * dist^alpha in task-cost units on top of executing it at
 * the receiver's efficiency.  An overloaded node ships to the
 * receiver minimizing (cost_j + radio(dist)), and only while that
 * total stays within the energy budget — a distant receiver must be
 * efficient enough to beat its own radio bill, and when no receiver
 * fits the budget the tasks stay put.
 */
class RfCostAwareBalancer : public LoadBalancer
{
  public:
    struct Config
    {
        /** Path-loss exponent applied to the hop distance. */
        double alpha = 2.0;
        /** Radio energy for a one-hop shipment, in task-cost units. */
        double hopCost = 0.05;
        /** Max total (execution + radio) cost worth paying per task. */
        double budget = 2.0;
        /** Probe window on each side. */
        int window = 5;
    };

    RfCostAwareBalancer();
    explicit RfCostAwareBalancer(const Config &cfg);

    void balanceInto(const std::vector<LbNodeState> &nodes, Rng &rng,
                     LbOutcome &out) override;
    std::string name() const override { return "rf-cost-aware"; }

    const Config &config() const { return _cfg; }

  private:
    Config _cfg;
    RoundScratch _scratch;
};

} // namespace neofog

#endif // NEOFOG_BALANCE_POLICIES_HH
