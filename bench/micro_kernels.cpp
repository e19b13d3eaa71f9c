/**
 * @file
 * google-benchmark microbenchmarks for the library's hot kernels:
 * the Algorithm 1 DP (O(n*MAXTIME) scaling), the FFT, the compressor,
 * and a full FogSystem slot loop.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "balance/assignment.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "kernels/compress.hh"
#include "kernels/fft.hh"
#include "kernels/signal_gen.hh"
#include "sim/rng.hh"

using namespace neofog;

namespace {

void
BM_Algorithm1(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto max_time = state.range(1);
    Rng rng(7);
    std::vector<std::int64_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.uniformInt(1, 10);
        b[i] = rng.uniformInt(1, 10);
    }
    for (auto _ : state) {
        auto r = assignTasks(a, b, max_time);
        benchmark::DoNotOptimize(r);
    }
    state.SetComplexityN(static_cast<std::int64_t>(n) * max_time);
}
BENCHMARK(BM_Algorithm1)
    ->Args({8, 64})
    ->Args({32, 256})
    ->Args({128, 1024})
    ->Args({512, 4096})
    ->Complexity(benchmark::oN);

void
BM_Fft(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    auto sig = kernels::bridgeVibration(rng, n, 100.0, 1.2);
    for (auto _ : state) {
        auto spec = kernels::magnitudeSpectrum(sig);
        benchmark::DoNotOptimize(spec);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void
BM_Compress(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    const auto sig = kernels::temperatureSignal(rng, n / 2, 20.0, 8.0);
    const auto bytes = kernels::quantize16(sig, -40.0, 85.0);
    for (auto _ : state) {
        auto out = kernels::compress(bytes);
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                            state.iterations());
}
BENCHMARK(BM_Compress)->Arg(1024)->Arg(16384)->Arg(65536);

void
BM_FogSystemSlotLoop(benchmark::State &state)
{
    const auto nodes = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ScenarioConfig cfg =
            presets::fig10(presets::fiosNeofog(), 0);
        cfg.nodesPerChain = 10;
        cfg.chains = nodes / 10;
        cfg.horizon = 30 * kMin;
        FogSystem sys(cfg);
        auto r = sys.run();
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(nodes) * 150 * state.iterations());
}
BENCHMARK(BM_FogSystemSlotLoop)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
