/**
 * @file
 * The chain-slot path allocates nothing once a chain has run a slot.
 *
 * This executable replaces the global operator new and delete with
 * counting versions.  For each registered offloading policy it builds
 * a fig-13 rain FogSystem (the perfbench rain-fleet shape, a few
 * chains), runs slot 0 on every chain so each engine sizes its
 * scratch, then counts heap allocations while every chain runs the
 * next slots.  The count must be 0.  FogSystem::runWindow, which runs
 * those slots chain by chain through one pool dispatch, must add none.
 *
 * Two more scenarios cover the per-node trace path the rain chains
 * never reach (their income is hoisted from one shared prefix table):
 * fig-10 forest chains under the three compared systems, and fig-11
 * bridge chains at mux 2, whose sleeping clones integrate gap windows.
 * Each node there integrates its own trace through its TraceCursor,
 * which samples whole grid cells into a stack buffer.
 *
 * The one known allocating path left is assignTasks (the Algorithm 1
 * DP table), reached only when a distributed donor splits its surplus
 * between two receivers.  None does in these windows; one would show
 * in the count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "balance/policy_registry.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"

// ThreadSanitizer's runtime defines operator new with strong symbols,
// so a statically linked one (clang's default) clashes with any
// replacement: under it this file replaces nothing and its tests skip.
// AddressSanitizer's definitions are weak and give way.
#if defined(__SANITIZE_THREAD__)
#define NEOFOG_COUNTS_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define NEOFOG_COUNTS_ALLOCATIONS 0
#endif
#endif
#ifndef NEOFOG_COUNTS_ALLOCATIONS
#define NEOFOG_COUNTS_ALLOCATIONS 1
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

#if NEOFOG_COUNTS_ALLOCATIONS
namespace {

void *
countedAlloc(std::size_t size, std::size_t align = 0) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    if (align == 0)
        return std::malloc(size);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void *
countedAllocOrThrow(std::size_t size, std::size_t align = 0)
{
    if (void *p = countedAlloc(size, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every replaceable form, so that none falls back to a runtime's own
// definition and allocates uncounted.
void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }
void *operator new(std::size_t n, std::align_val_t a)
{ return countedAllocOrThrow(n, static_cast<std::size_t>(a)); }
void *operator new[](std::size_t n, std::align_val_t a)
{ return countedAllocOrThrow(n, static_cast<std::size_t>(a)); }
void *operator new(std::size_t n, const std::nothrow_t &) noexcept
{ return countedAlloc(n); }
void *operator new[](std::size_t n, const std::nothrow_t &) noexcept
{ return countedAlloc(n); }
void *operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t &) noexcept
{ return countedAlloc(n, static_cast<std::size_t>(a)); }
void *operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t &) noexcept
{ return countedAlloc(n, static_cast<std::size_t>(a)); }

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{ std::free(p); }
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{ std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{ std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept
{ std::free(p); }
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{ std::free(p); }
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{ std::free(p); }
#endif // NEOFOG_COUNTS_ALLOCATIONS

namespace neofog {
namespace {

constexpr bool kCountsAllocations = NEOFOG_COUNTS_ALLOCATIONS;

/** A few chains of the rain-fleet shape. */
constexpr std::size_t kChains = 4;
/** Slots counted after the warm-up slot. */
constexpr std::int64_t kCountedSlots = 50;

// Keeps the zero below from passing because the replacements were not
// the ones linked.
TEST(SlotAllocation, CountingOperatorNewSeesVectors)
{
    if (!kCountsAllocations)
        GTEST_SKIP() << "ThreadSanitizer owns operator new";
    const std::uint64_t before = g_allocations.load();
    auto v = std::make_unique<std::vector<int>>(16);
    EXPECT_GE(g_allocations.load() - before, 2u);
}

/** A serial fig-13 rain scenario under @p policy. */
ScenarioConfig
rainScenario(const std::string &policy)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 1);
    cfg.balancerPolicy = policy;
    cfg.chains = kChains;
    cfg.threads = 1;
    return cfg;
}

/**
 * Heap allocations while every chain of @p cfg runs slots 1 to
 * kCountedSlots, after each has run slot 0.
 */
std::uint64_t
allocationsAfterFirstSlot(const ScenarioConfig &cfg)
{
    EXPECT_GT(cfg.slotCount(), kCountedSlots);
    FogSystem sys(cfg);

    for (const auto &chain : sys.chains())
        chain->runSlot(0);

    const std::uint64_t before = g_allocations.load();
    for (std::int64_t s = 1; s <= kCountedSlots; ++s) {
        for (const auto &chain : sys.chains())
            chain->runSlot(s);
    }
    return g_allocations.load() - before;
}

TEST(SlotAllocation, EveryPolicyRunsSlotsWithoutHeapTraffic)
{
    if (!kCountsAllocations)
        GTEST_SKIP() << "ThreadSanitizer owns operator new";
    for (const std::string &policy : PolicyRegistry::instance().names()) {
        SCOPED_TRACE(policy);
        EXPECT_EQ(allocationsAfterFirstSlot(rainScenario(policy)), 0u);
    }
}

// The fig-10 systems as perfbench's forest-sweep runs them: NOS-VP
// with `none`, NOS-NVP with `tree` and FIOS with `distributed`, each
// node integrating its own forest trace.
TEST(SlotAllocation, ForestChainsRunSlotsWithoutHeapTraffic)
{
    if (!kCountsAllocations)
        GTEST_SKIP() << "ThreadSanitizer owns operator new";
    for (const presets::SystemUnderTest &sut :
         {presets::nosVp(), presets::nosNvpBaseline(),
          presets::fiosNeofog()}) {
        SCOPED_TRACE(sut.label);
        ScenarioConfig cfg = presets::fig10(sut, 0);
        ASSERT_EQ(cfg.traceKind, TraceKind::ForestIndependent);
        cfg.threads = 1;
        EXPECT_EQ(allocationsAfterFirstSlot(cfg), 0u);
    }
}

// Bridge chains at mux 2: each clone sleeps through every other slot,
// so its cursor integrates a gap window before each slot it serves.
TEST(SlotAllocation, BridgeGapWindowsRunWithoutHeapTraffic)
{
    if (!kCountsAllocations)
        GTEST_SKIP() << "ThreadSanitizer owns operator new";
    ScenarioConfig cfg = presets::fig11(presets::fiosNeofog(), 2);
    ASSERT_EQ(cfg.traceKind, TraceKind::BridgeDependent);
    cfg.multiplexing = 2;
    cfg.threads = 1;
    EXPECT_EQ(allocationsAfterFirstSlot(cfg), 0u);
}

// A window's body fits std::function's in-place buffer (16 bytes in
// libstdc++), so stepping through runWindow allocates nothing either.
// Only a serial system is counted: a pooled window also allocates the
// pool's Job once per call (ThreadPool::parallelForChunked).
TEST(SlotAllocation, RunWindowIsAllocationFree)
{
    if (!kCountsAllocations)
        GTEST_SKIP() << "ThreadSanitizer owns operator new";
    for (const std::string &policy : PolicyRegistry::instance().names()) {
        SCOPED_TRACE(policy);
        const ScenarioConfig cfg = rainScenario(policy);
        ASSERT_GT(cfg.slotCount(), kCountedSlots);
        FogSystem sys(cfg);

        sys.runWindow(0, 1);

        const std::uint64_t before = g_allocations.load();
        sys.runWindow(1, 1 + kCountedSlots);
        EXPECT_EQ(g_allocations.load() - before, 0u);
    }
}

} // namespace
} // namespace neofog
