/**
 * @file
 * Chain-level load balancers: none, baseline tree, NEOFog distributed.
 *
 * The system simulator describes each node's state at a balancing round
 * (alive, task queue, capacity, efficiency); a balancer returns task
 * moves.  Three policies reproduce the paper's comparison (Fig 6):
 *
 *  - NoBalancer: Fig 6(b), every node keeps its own load;
 *  - TreeBalancer: Fig 6(c), the conventional up-down multi-level
 *    binary scheme — a coordinator subtree fails entirely when its
 *    coordinator lacks energy;
 *  - DistributedBalancer: Fig 6(d) / Algorithm 1, bottom-up pairwise
 *    neighbour negotiation using the DP assignment core, tolerant of
 *    dead regions, preferring efficient nearby nodes.
 */

#ifndef NEOFOG_BALANCE_BALANCER_HH
#define NEOFOG_BALANCE_BALANCER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"

namespace neofog {

/**
 * Load-balance-relevant state of one chain node at a round.
 *
 * A node that is not alive takes no part: every policy tests alive
 * before it reads a node's capacityTasks or taskCost, so a dead entry's
 * two values may hold anything (a caller need not fill them) and a
 * round gives the same moves, counts and stream draws whatever they
 * hold.  Its pendingTasks are still read: they are the tasks it keeps.
 */
struct LbNodeState
{
    /** Whether the node can participate at all this round. */
    bool alive = true;
    /** Tasks queued at this node (its own sampled batches). */
    int pendingTasks = 0;
    /**
     * Tasks this node could execute this round with its available
     * energy (fractional: 2.5 = two tasks plus half the energy of a
     * third).
     */
    double capacityTasks = 0.0;
    /**
     * Relative time/energy to run one task here (1.0 = nominal;
     * lower = more efficient, per the Spendthrift configuration the
     * node shared).
     */
    double taskCost = 1.0;
};

/** One task transfer decided by a balancer. */
struct TaskMove
{
    std::size_t from = 0;
    std::size_t to = 0;
    int tasks = 0;
};

/** Outcome of one balancing round. */
struct LbOutcome
{
    std::vector<TaskMove> moves;
    /** Info/assignment messages exchanged (for energy accounting). */
    int messagesExchanged = 0;
    /** Regions that failed to balance (coordinator dead, interrupt). */
    int failedRegions = 0;

    /** Clear counters and moves, keeping the moves' capacity. */
    void reset();

    /** Apply the moves to a pending-task vector. */
    std::vector<int> apply(const std::vector<int> &pending) const;
};

/**
 * The per-round view of a chain a policy keeps as a member, so that a
 * round allocates nothing once its chain has run one.
 */
struct RoundScratch
{
    /** Tasks each node holds. */
    std::vector<double> load;
    /** Spare task capacity of each alive node; 0 for a dead one. */
    std::vector<double> spare;

    /**
     * Rewrite every entry for @p nodes.
     * @return Whether some node is a receiver: alive with at least
     *         one task of spare.
     */
    bool fill(const std::vector<LbNodeState> &nodes);
};

/**
 * Abstract balancing policy over one chain.
 */
class LoadBalancer
{
  public:
    virtual ~LoadBalancer() = default;

    /**
     * Decide task moves for one round, writing into caller-owned
     * storage: @p out is reset() first, so a per-slot caller reuses
     * its moves capacity instead of allocating a fresh outcome every
     * round (the fleet-scale hot path).
     * @param nodes Per-node shared state, in chain order.
     * @param rng Stream for stochastic behaviours (interrupts).
     * @param out Receives the round's outcome.
     */
    virtual void balanceInto(const std::vector<LbNodeState> &nodes,
                             Rng &rng, LbOutcome &out) = 0;

    /** Convenience wrapper returning a fresh outcome. */
    LbOutcome
    balance(const std::vector<LbNodeState> &nodes, Rng &rng)
    {
        LbOutcome out;
        balanceInto(nodes, rng, out);
        return out;
    }

    virtual std::string name() const = 0;
};

/** No balancing: every node keeps its own tasks. */
class NoBalancer : public LoadBalancer
{
  public:
    void balanceInto(const std::vector<LbNodeState> &nodes, Rng &rng,
                     LbOutcome &out) override;
    std::string name() const override { return "none"; }
};

/**
 * Baseline up-down multi-level binary tree balancer.  The node at the
 * middle of each region coordinates: it gathers load info up the tree
 * and pushes assignments down.  If a coordinator is dead or lacks the
 * energy to run the protocol, its whole region is left unbalanced
 * (the Fig 6(c) failure).
 */
class TreeBalancer : public LoadBalancer
{
  public:
    struct Config
    {
        /** Capacity a coordinator must have to run the protocol. */
        double coordinatorMinCapacity = 0.2;
        /** Smallest region the recursion still balances. */
        std::size_t minRegion = 2;
    };

    TreeBalancer();
    explicit TreeBalancer(const Config &cfg);

    void balanceInto(const std::vector<LbNodeState> &nodes, Rng &rng,
                     LbOutcome &out) override;
    std::string name() const override { return "baseline-tree"; }

  private:
    void balanceRegion(const std::vector<LbNodeState> &nodes,
                       std::vector<double> &load, std::size_t lo,
                       std::size_t hi, LbOutcome &out) const;

    Config _cfg;
    /** Round scratch: tasks held per node. */
    std::vector<double> _load;
};

/**
 * NEOFog's distributed bottom-up balancer (Algorithm 1).
 *
 * Each overloaded node exchanges state with progressively further
 * neighbours (node 4 learns about 3 and 5 before touching the energy-
 * hungry node 2), prices its surplus tasks on the best-efficiency
 * reachable node of each side, and splits them with the DP.  Nodes that
 * end up over-assigned trigger a second round.  If a participant dies
 * mid-protocol the region simply skips balancing this interval
 * (performance, not functionality, is affected).
 */
class DistributedBalancer : public LoadBalancer
{
  public:
    struct Config
    {
        /** How many neighbours each side is probed (first round). */
        int neighborWindow = 2;
        /** MAXTIME for the DP, in task-cost quanta. */
        std::int64_t maxTimeQuanta = 64;
        /** Cost quantization: quanta per unit taskCost. */
        double quantaPerUnit = 8.0;
        /** Probability the protocol is interrupted at a region. */
        double interruptChance = 0.02;
        /** Maximum redistribution rounds. */
        int maxRounds = 2;
    };

    DistributedBalancer();
    explicit DistributedBalancer(const Config &cfg);

    void balanceInto(const std::vector<LbNodeState> &nodes, Rng &rng,
                     LbOutcome &out) override;
    std::string name() const override { return "neofog-distributed"; }

    const Config &config() const { return _cfg; }

  private:
    Config _cfg;
    RoundScratch _scratch;
};

/**
 * Cluster-head balancer — the classic LEACH-style scheme from the WSN
 * load-balancing literature the paper contrasts against (§6: "some
 * works use partitioned clusters for load balance").  The chain is cut
 * into fixed clusters; each cluster elects the member with the most
 * capacity as head; members report load to the head, which
 * redistributes *within the cluster only*.  Like the tree baseline it
 * concentrates responsibility: a cluster with no viable head does not
 * balance, and inter-cluster imbalance is never addressed.
 */
class ClusterBalancer : public LoadBalancer
{
  public:
    struct Config
    {
        /** Nodes per cluster. */
        std::size_t clusterSize = 4;
        /** Minimum capacity a node needs to serve as head. */
        double headMinCapacity = 0.5;
    };

    ClusterBalancer();
    explicit ClusterBalancer(const Config &cfg);

    void balanceInto(const std::vector<LbNodeState> &nodes, Rng &rng,
                     LbOutcome &out) override;
    std::string name() const override { return "cluster-head"; }

  private:
    Config _cfg;
    /** Round scratch: tasks held per node. */
    std::vector<double> _load;
};

} // namespace neofog

#endif // NEOFOG_BALANCE_BALANCER_HH
