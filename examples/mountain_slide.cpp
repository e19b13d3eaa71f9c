/**
 * @file
 * Mountain slide monitoring with NVD4Q node virtualization (§3.3,
 * §5.3).
 *
 * Slides happen during heavy rain — exactly when solar-powered motes
 * starve.  This example shows the Algorithm 2 machinery directly
 * (clone-group formation, NVRF state cloning, slot rotation) and then
 * sweeps the multiplexing factor in the rainy scenario, reproducing the
 * Fig 13 behaviour: gains rise until ~3x and saturate.
 */

#include <cstdio>

#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "net/topology.hh"
#include "sim/rng.hh"
#include "virt/nvd4q.hh"

using namespace neofog;

namespace {

void
demonstrateCloning()
{
    std::printf("== Algorithm 2: joining the network by cloning NVRF "
                "state ==\n");

    // An established node's NVRF register file with live network
    // state.
    RfState veteran;
    veteran.channel = 17;
    veteran.routeVersion = 9;
    veteran.associatedDevList = {12, 14};

    // A freshly air-dropped node joins by cloning it.
    RfState rookie;
    const JoinCost cost =
        Nvd4qManager::joinCost(Radio::nvrf(), rookie, veteran);
    std::printf("  join took %.1f ms and %.3f mJ; channel %d and %zu "
                "neighbours inherited,\n  no network reconstruction "
                "needed\n",
                msFromTicks(cost.duration), cost.energy.millijoules(),
                rookie.channel, rookie.associatedDevList.size());

    // Clone groups over a dense deployment.
    Rng rng(3);
    const ChainMesh mesh = ChainMesh::makeDenseChain(5, 3, 15.0, 4.0,
                                                     rng);
    const auto groups = Nvd4qManager::formGroups(mesh, 5, 3);
    std::printf("  formed %zu logical nodes from %zu physical; slot "
                "rotation of logical node 2:",
                groups.size(), mesh.size());
    for (std::int64_t s = 0; s < 6; ++s)
        std::printf(" %zu", groups[2].memberForSlot(s));
    std::printf(" ...\n\n");
}

void
sweepMultiplexing()
{
    std::printf("== Rainy-day QoS vs multiplexing (Fig 13 scenario) "
                "==\n");

    FogSystem vp(presets::fig13(presets::nosVp(), 1));
    const SystemReport vp_r = vp.run();
    std::printf("  %-22s %5llu packages\n", "VP baseline",
                static_cast<unsigned long long>(vp_r.totalProcessed()));

    double ref = 0.0;
    for (int mux = 1; mux <= 4; ++mux) {
        FogSystem sys(presets::fig13(presets::fiosNeofog(), mux));
        const SystemReport r = sys.run();
        if (mux == 1)
            ref = static_cast<double>(r.totalProcessed());
        std::printf("  NEOFog @ %dx mux       %5llu packages "
                    "(%.1fx VP, %.2fx of 1x)\n",
                    mux,
                    static_cast<unsigned long long>(r.totalProcessed()),
                    static_cast<double>(r.totalProcessed()) /
                        static_cast<double>(vp_r.totalProcessed()),
                    static_cast<double>(r.totalProcessed()) / ref);
    }
    std::printf("\nEach physical clone wakes 1/k of the slots, so it "
                "accumulates k slots of rain\ntrickle before serving — "
                "until the shared dark stretches, not node energy,\n"
                "bound the yield (saturation near 3x).\n");
}

} // namespace

int
main()
{
    std::printf("NEOFog example: mountain slide monitoring with "
                "NVD4Q\n\n");
    demonstrateCloning();
    sweepMultiplexing();
    return 0;
}
