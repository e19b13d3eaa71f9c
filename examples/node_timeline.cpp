/**
 * @file
 * Node timeline — Figure 1, live.
 *
 * Attaches a NodeObserver to one NOS-VP node and one FIOS NV-mote,
 * drives them through the same five slots of harvested power, and
 * prints every phase each node actually executed with its timing and
 * energy.  Where bench/fig4_node_timing tabulates the *constants*,
 * this example shows the *behaviour*: the VP burning its burst on
 * radio setup, the NV-mote spending the same slots computing.
 */

#include <cstdio>
#include <memory>

#include "energy/power_trace.hh"
#include "fog/presets.hh"
#include "node/node.hh"

using namespace neofog;

namespace {

class PrintingObserver : public NodeObserver
{
  public:
    void
    onPhase(std::uint32_t node_id, Phase phase, Tick start,
            Tick duration, Energy energy) override
    {
        std::printf("    [%8.3f s] node %u  %-10s %9.2f ms  %8.3f mJ\n",
                    secondsFromTicks(start), node_id,
                    phaseName(phase).c_str(), msFromTicks(duration),
                    energy.millijoules());
        _total += energy;
    }

    Energy total() const { return _total; }

  private:
    Energy _total;
};

void
runNode(OperatingMode mode, std::uint32_t id, const char *label)
{
    std::printf("  %s:\n", label);
    Node::Config cfg = presets::systemNodeTemplate();
    cfg.id = id;
    cfg.mode = mode;
    cfg.cap.initial = Energy::fromMillijoules(120.0);

    Node node(cfg, std::make_unique<ConstantTrace>(
                       Power::fromMilliwatts(6.0)));
    PrintingObserver obs;
    node.setObserver(&obs);

    const Tick slot = 12 * kSec;
    int delivered = 0;
    for (int s = 0; s < 5; ++s) {
        node.beginSlot(s * slot, slot);
        if (!node.tryWake()) {
            std::printf("    [%8.3f s] node %u  (slept: below "
                        "activation threshold)\n",
                        secondsFromTicks(s * slot), id);
            continue;
        }
        if (mode == OperatingMode::NosVp) {
            const EnergyClass cls = node.classify();
            if (cls != EnergyClass::Ready && cls != EnergyClass::Extra)
                continue;
        }
        node.samplePackage();
        while (node.pendingPackages() > 0 &&
               node.canCompleteOnePackage()) {
            if (node.executeTasks(1) == 0)
                break;
            if (node.payTransmit(node.spec().resultPackage.send))
                ++delivered;
        }
    }
    std::printf("    -> %d package(s) delivered, %.1f mJ spent, "
                "%.1f mJ still stored\n\n",
                delivered, obs.total().millijoules(),
                node.stored().millijoules());
}

} // namespace

int
main()
{
    std::printf("NEOFog example: live node timelines (5 slots, 6 mW "
                "harvest)\n\n");
    runNode(OperatingMode::NosVp, 1, "NOS-VP (normally-off volatile)");
    runNode(OperatingMode::FiosNvMote, 2,
            "FIOS NV-mote (NVP + NVRF, direct-channel compute)");
    std::printf("The VP's budget disappears into radio setup and raw "
                "transmission; the\nNV-mote turns the same harvest "
                "into fog computation and ships bytes, not\nbatches.\n");
    return 0;
}
