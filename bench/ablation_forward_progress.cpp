/**
 * @file
 * Ablation: NVP-FIOS vs VP-NOS forward progress under intermittent
 * power (the §2.2 claim, from Ma et al. [47]: "2.2X to 5X depending on
 * the power profile at hand").
 *
 * Sweeps power profiles from a starved flicker to ample steady supply
 * and reports committed instructions, waste, power cycles, and the
 * NVP/VP ratio — showing both the 2.2-5x band in harvesting regimes
 * and its collapse toward 1x when power is stable and ample (NVPs are
 * better "if only in unstable power environments").
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "energy/power_trace.hh"
#include "node/intermittent.hh"
#include "sim/rng.hh"

using namespace neofog;
using namespace neofog::bench;

int
main()
{
    header("Forward progress: NVP (FIOS front end) vs VP (NOS front "
           "end), 10 min horizon");

    const Tick horizon = 10 * kMin;

    struct Profile
    {
        std::string label;
        std::unique_ptr<PowerTrace> trace;
    };
    std::vector<Profile> profiles;

    {
        Rng rng(11);
        profiles.push_back({"piezo bursts (0.5 mW pulses)",
                            traces::makePiezoTrace(rng, horizon,
                                                   Power::fromMilliwatts(
                                                       0.5),
                                                   30.0)});
    }
    for (double mw : {0.05, 0.1, 0.2, 0.5, 1.0, 2.0}) {
        Rng rng(17);
        char label[64];
        std::snprintf(label, sizeof(label), "forest solar %.2f mW",
                      mw);
        profiles.push_back(
            {label, traces::makeForestTrace(
                        rng, horizon, Power::fromMilliwatts(mw))});
    }
    profiles.push_back({"steady 2 mW (bench supply)",
                        std::make_unique<ConstantTrace>(
                            Power::fromMilliwatts(2.0))});

    Table t({30, 13, 13, 12, 10, 9});
    t.row({"Power profile", "NVP inst", "VP inst", "VP wasted",
           "Cycles", "Ratio"});
    t.separator();

    ResultSink sink("ablation_forward_progress");
    IntermittentExecution::Config cfg;
    for (const Profile &p : profiles) {
        const Processor nvp = Processor::fiosNvp();
        const Processor vp = Processor::volatileMcu();
        auto nv_cfg = cfg;
        nv_cfg.frontend = FrontEnd::makeFios().config();
        auto vp_cfg = cfg;
        vp_cfg.frontend = FrontEnd::makeNos().config();
        const auto rn = IntermittentExecution::run(nvp, *p.trace,
                                                   horizon, nv_cfg);
        const auto rv = IntermittentExecution::run(vp, *p.trace,
                                                   horizon, vp_cfg);
        const double ratio = rv.instructionsCompleted
            ? static_cast<double>(rn.instructionsCompleted) /
              static_cast<double>(rv.instructionsCompleted)
            : 0.0;
        t.row({p.label, std::to_string(rn.instructionsCompleted),
               std::to_string(rv.instructionsCompleted),
               std::to_string(rv.instructionsWasted),
               std::to_string(rv.powerCycles),
               ratio > 0.0 ? fmt(ratio, 2) + "x" : "inf"});
        sink.add(keyify(p.label) + "_nvp_vs_vp", ratio);
    }
    sink.write();

    out("\nShape check (paper §2.2, citing [47]): 2.2x-5x more "
                "forward progress in\nharvesting regimes; the advantage "
                "shrinks toward 1x under ample stable power.\n");
    return 0;
}
