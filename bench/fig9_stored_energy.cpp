/**
 * @file
 * Reproduces Figure 9: stored energy level of three consecutive chain
 * nodes over 300 minutes of daytime solar, for the three systems.
 *
 * Paper shape: without load balancing the well-harvesting node's
 * capacitor is frequently full in the first ~50 minutes (income is
 * rejected); the baseline tree balancer keeps it lower by moving work
 * there; the proposed distributed balancer keeps it lowest.  The bench
 * prints each node's series (mJ, sampled every 10 min) plus overflow
 * totals, which quantify the rejected energy directly.
 */


#include "bench_util.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"

using namespace neofog;
using namespace neofog::bench;

int
main()
{
    header("Figure 9: stored energy of 3 consecutive nodes, 300 min "
           "daytime solar");

    const presets::SystemUnderTest systems[] = {
        presets::nosVp(),
        presets::nosNvpBaseline(),
        presets::fiosNeofog(),
    };

    // Pick the chain's strongest harvester and its two right-hand
    // neighbours (the paper plots three consecutive nodes, the first
    // of which harvests well).  Traces are seed-determined, so the
    // same physical nodes are compared across all three systems.
    std::size_t nodes_of_interest[3] = {0, 1, 2};
    {
        FogSystem scout(presets::fig9(presets::nosVp()));
        scout.run();
        std::size_t best = 0;
        double best_h = -1.0;
        for (std::size_t i = 0; i + 2 < 10; ++i) {
            const double h = scout.node(0, i)
                                 .stats().harvestedTotal.joules();
            if (h > best_h) {
                best_h = h;
                best = i;
            }
        }
        nodes_of_interest[0] = best;
        nodes_of_interest[1] = best + 1;
        nodes_of_interest[2] = best + 2;
    }

    ResultSink sink("fig9_stored_energy");
    for (const auto &sut : systems) {
        ScenarioConfig cfg = presets::fig9(sut);
        StoredEnergyLog logs[3];
        FogSystem system(cfg);
        for (std::size_t k = 0; k < 3; ++k)
            system.setObserver(0, nodes_of_interest[k], &logs[k]);
        system.run();

        out("\n%s (series in mJ, one sample / 10 min):\n",
                    sut.label.c_str());
        for (std::size_t k = 0; k < 3; ++k) {
            const std::size_t ni = nodes_of_interest[k];
            const Node &node = system.node(0, ni);
            const TimeSeries &series = logs[k].series();
            out("  node %zu:", ni);
            const Tick step = 10 * kMin;
            Tick next = 0;
            for (const auto &pt : series.points()) {
                if (pt.when >= next) {
                    out(" %5.0f", pt.value);
                    next += step;
                }
            }
            const double overflow_mj =
                node.capacitor().overflowTotal().millijoules();
            double mean_mj = 0.0;
            for (const auto &pt : series.points())
                mean_mj += pt.value;
            if (!series.points().empty())
                mean_mj /= static_cast<double>(series.points().size());
            out("\n    overflow (rejected) total: %.1f mJ, "
                        "mean stored %.1f mJ\n", overflow_mj, mean_mj);
            const std::string key =
                keyify(sut.label) + "_node" + std::to_string(ni);
            sink.add(key + "_overflow_mj", overflow_mj);
            sink.add(key + "_mean_stored_mj", mean_mj);
        }
    }
    sink.write();

    out(
        "\nShape checks: (a) the ordinary nodes' mean stored level "
        "decreases from\nno-LB to baseline LB to the distributed "
        "balancer — their work is funded\nmore directly and their "
        "surplus ships to neighbours; (b) capacitor-full\nplateaus "
        "(250 mJ samples) and overflow concentrate at the strongest\n"
        "harvester, which the distributed balancer loads with the most "
        "received\ntasks.  Unlike the paper's deployment, our strongest "
        "node's income exceeds\nany absorbable load at this node "
        "density, so its own mean stays pinned\nhigh (see "
        "EXPERIMENTS.md).\n");
    return 0;
}
