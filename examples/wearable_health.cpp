/**
 * @file
 * Wearable heartbeat monitor — the paper's most compute-intensive
 * Table 2 workload (pattern matching, 59.5% compute share even in the
 * naive strategy).
 *
 * Runs the real ECG pipeline (template correlation, beat detection,
 * rate estimation, compression) on synthetic signals, then compares the
 * two node strategies of Table 2 — naive sensing-computing-transmission
 * vs sensing-buffering-computing-compression-transmission — with the
 * paper's measured energy model.
 */

#include <cstdio>

#include "hw/processor.hh"
#include "kernels/compress.hh"
#include "kernels/pattern_match.hh"
#include "kernels/signal_gen.hh"
#include "sim/rng.hh"
#include "workload/app_profile.hh"
#include "workload/fog_task.hh"

using namespace neofog;

namespace {

void
runEcgPipeline()
{
    std::printf("== On-node heartbeat pattern matching ==\n");
    Rng rng(60601);
    const double rate_hz = 250.0;

    for (double true_bpm : {58.0, 72.0, 96.0}) {
        const auto ecg =
            kernels::ecgSignal(rng, 7500, rate_hz, true_bpm, 0.03);
        const auto beat =
            static_cast<std::size_t>(60.0 / true_bpm * rate_hz);
        const auto tmpl = kernels::ecgBeatTemplate(beat * 3 / 4);
        const auto matches = kernels::findMatches(ecg, tmpl, 0.45);
        const double est_bpm =
            60.0 * static_cast<double>(matches.size()) /
            (7500.0 / rate_hz);

        // The node ships beat positions, not the waveform.
        std::vector<double> record{est_bpm};
        for (const auto &m : matches)
            record.push_back(static_cast<double>(m.position));
        const auto payload = kernels::compress(
            kernels::quantize16(record, 0.0, 10000.0));

        std::printf("  true %5.1f bpm -> detected %zu beats, est "
                    "%5.1f bpm, payload %zu B (raw %zu B)\n",
                    true_bpm, matches.size(), est_bpm, payload.size(),
                    ecg.size() * 2);
    }
    std::printf("\n");
}

void
compareStrategies()
{
    std::printf("== Strategy comparison (Table 2 model, pattern "
                "matching) ==\n");
    const AppProfile p = appProfile(AppKind::PatternMatching);

    const double naive_per_sample =
        p.naiveComputeEnergy().nanojoules() +
        p.naiveTxEnergy().nanojoules();
    const double naive_batch =
        naive_per_sample * static_cast<double>(p.samplesPerBatch());
    const double buffered_batch =
        p.bufferedComputeEnergy().nanojoules() +
        p.bufferedTxEnergy().nanojoules();

    std::printf("  naive:    %.1f nJ/sample -> %.1f mJ per 64 kB of "
                "data (compute share %.1f%%)\n",
                naive_per_sample, naive_batch * 1e-6,
                p.naiveComputeRatio() * 100.0);
    std::printf("  buffered: %.1f mJ per 64 kB batch (compute share "
                "%.1f%%, compression to %.1f%%)\n",
                buffered_batch * 1e-6, p.bufferedComputeRatio() * 100.0,
                p.compressionRatio * 100.0);
    std::printf("  energy saved by buffering: %.1f%% (paper: -24.1%%)\n",
                -p.energySavedRatio() * 100.0);

    // How long does the batch take on the fabricated 1 MHz NVP?
    const Processor nvp = Processor::nosNvp();
    const auto inst = p.bufferedInstructionsFor(AppProfile::kBatchBytes);
    std::printf("  batch compute on the 1 MHz NVP: %.1f s of "
                "(intermittent) execution, %.1f mJ\n\n",
                secondsFromTicks(nvp.computeTime(inst)),
                nvp.computeEnergy(inst).millijoules());
}

void
runKernelBackedTask()
{
    std::printf("== Kernel-backed fog task (what the simulator "
                "abstracts) ==\n");
    Rng rng(5);
    auto task = makeFogTask(AppKind::PatternMatching);
    const FogOutput out = task->processBatch(16 * 1024, rng);
    std::printf("  processed %zu raw bytes with %llu ops -> %zu B "
                "payload (%.2f%%), heart rate %.1f bpm\n",
                out.rawBytes,
                static_cast<unsigned long long>(out.opsExecuted),
                out.payload.size(), out.achievedRatio() * 100.0,
                out.metric);
}

} // namespace

int
main()
{
    std::printf("NEOFog example: wearable heartbeat monitor\n\n");
    runEcgPipeline();
    compareStrategies();
    runKernelBackedTask();
    return 0;
}
