/**
 * @file
 * Event-driven simulated time against its single-cycle references.
 *
 * Machine::advance moves time in windows that end only at fault
 * injector events; inside a window the background revoker runs its
 * one-beat step over the free cycles only. Each coarse path must be
 * exactly its per-cycle reference:
 *   - BackgroundRevoker::advance(n, busy) against n calls of
 *     tick(i >= busy), from seeded mid-sweep states on both bus
 *     widths, with and without the second-half skip, stalled, with a
 *     stuck epoch, and with snoops between windows;
 *   - FaultInjector::nextEventCycle(now) against the first cycle at
 *     which per-cycle tick() changes fired() or revokerStalled();
 *   - one Machine::advance(N, busy) against N single-cycle advances,
 *     with an injector armed for every cycle-triggered site.
 */

#include "fault/fault_injector.h"
#include "revoker/background_revoker.h"
#include "sim/machine.h"
#include "snapshot/serializer.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cheriot::sim
{
namespace
{

using cap::Capability;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using revoker::BackgroundRevoker;

MachineConfig
sweepConfig(const CoreConfig &core, FaultInjector *injector)
{
    MachineConfig config;
    config.core = core;
    config.sramSize = 128u << 10;
    config.heapOffset = 64u << 10;
    config.heapSize = 32u << 10;
    config.injector = injector;
    return config;
}

/** Plant seeded capabilities across the heap (a quarter of them to
 * revoked granules) and kick a sweep over it. */
void
startSeededSweep(Machine &machine, uint64_t seed, bool skipSecondHalf)
{
    Rng rng(seed);
    const uint32_t heap = machine.heapBase();
    const uint32_t size = machine.machineConfig().heapSize;
    for (int i = 0; i < 512; ++i) {
        const uint32_t slot = heap + rng.below(size / 8) * 8;
        const uint32_t target = heap + rng.below(size / 16) * 16;
        const Capability ref =
            Capability::memoryRoot().withAddress(target).withBounds(16);
        ASSERT_EQ(machine.storeCap(Capability::memoryRoot(), slot, ref,
                                   /*charge=*/false),
                  TrapCause::None);
        if (rng.chance(1, 4)) {
            machine.revocationBitmap().setRange(target, 16);
        }
    }
    BackgroundRevoker &engine = machine.backgroundRevoker();
    engine.setSkipSecondHalfLoad(skipSecondHalf);
    engine.write32(0x0, heap);
    engine.write32(0x4, heap + size);
    engine.write32(0xc, 1);
}

std::vector<uint8_t>
revokerState(const BackgroundRevoker &engine)
{
    snapshot::Writer w;
    engine.serialize(w);
    return w.take();
}

/** The same store on both machines, between windows: sometimes a
 * capability store into the heap, sometimes a wide snoop (a zeroing
 * store) that forces every in-flight word to reload. */
void
storeBetweenWindows(Rng &rng, Machine &a, Machine &b)
{
    const uint32_t heap = a.heapBase();
    const uint32_t size = a.machineConfig().heapSize;
    if (rng.chance(1, 2)) {
        const uint32_t slot = heap + rng.below(size / 8) * 8;
        const Capability value = Capability::memoryRoot()
                                     .withAddress(heap + 0x40)
                                     .withBounds(16);
        for (Machine *m : {&a, &b}) {
            ASSERT_EQ(m->storeCap(Capability::memoryRoot(), slot, value,
                                  /*charge=*/false),
                      TrapCause::None);
        }
    } else {
        a.backgroundRevoker().snoopStore(heap, size);
        b.backgroundRevoker().snoopStore(heap, size);
    }
}

enum class RevokerScenario
{
    Plain,
    Stalled,
    StuckEpoch,
};

/** Arm and fire @p site at cycle 0 on @p injector. */
void
fireNow(FaultInjector &injector, FaultSite site)
{
    FaultPlan plan;
    plan.site = site;
    plan.param = 1u << 30; // Stall window far beyond the test.
    injector.arm(plan);
    injector.tick(0);
}

void
checkRevokerWindows(const CoreConfig &core, bool skipSecondHalf,
                    RevokerScenario scenario, uint64_t seed)
{
    FaultInjector injectorA(seed);
    FaultInjector injectorB(seed);
    Machine a(sweepConfig(core, &injectorA));
    Machine b(sweepConfig(core, &injectorB));
    startSeededSweep(a, seed, skipSecondHalf);
    startSeededSweep(b, seed, skipSecondHalf);
    BackgroundRevoker &fast = a.backgroundRevoker();
    BackgroundRevoker &ref = b.backgroundRevoker();

    // Reach a seeded mid-sweep state the same way on both.
    Rng rng(seed ^ 0x5eed);
    const uint32_t warmup = rng.below(4000);
    for (uint32_t i = 0; i < warmup; ++i) {
        fast.tick(true);
        ref.tick(true);
    }
    ASSERT_TRUE(fast.sweeping());
    if (scenario == RevokerScenario::Stalled) {
        fireNow(injectorA, FaultSite::RevokerStall);
        fireNow(injectorB, FaultSite::RevokerStall);
        ASSERT_TRUE(injectorA.revokerStalled());
    } else if (scenario == RevokerScenario::StuckEpoch) {
        fireNow(injectorA, FaultSite::RevokerStuckEpoch);
        fireNow(injectorB, FaultSite::RevokerStuckEpoch);
        ASSERT_TRUE(injectorA.suppressEpochIncrement());
    }

    for (int window = 0; window < 400; ++window) {
        const uint64_t n = rng.below(400);
        const uint64_t busy = rng.chance(1, 8) ? n + rng.below(8)
                                               : rng.below(n + 1);
        fast.advance(n, busy);
        for (uint64_t i = 0; i < n; ++i) {
            ref.tick(i >= busy);
        }
        ASSERT_EQ(revokerState(fast), revokerState(ref))
            << "window " << window << " (n=" << n << ", busy=" << busy
            << ")";
        if (rng.chance(1, 3)) {
            storeBetweenWindows(rng, a, b);
        }
        if (window == 200 && scenario != RevokerScenario::Plain) {
            // The software recovery: a kick clears the injected stall
            // or the held completion, and the sweep carries on.
            ASSERT_TRUE(fast.sweeping()) << "the fault held the sweep";
            a.backgroundRevoker().write32(0xc, 1);
            b.backgroundRevoker().write32(0xc, 1);
        }
    }
    EXPECT_FALSE(fast.sweeping());
    EXPECT_EQ(a.stateDigest(), b.stateDigest());
    if (scenario == RevokerScenario::Stalled) {
        EXPECT_GT(fast.stallCycles.value(), 0u);
    }
}

TEST(EventTime, RevokerAdvanceEqualsPerCycleTicks)
{
    const std::pair<const char *, CoreConfig> cores[] = {
        {"ibex (2-beat bus)", CoreConfig::ibex()},
        {"flute (1-beat bus)", CoreConfig::flute()}};
    const std::pair<const char *, RevokerScenario> scenarios[] = {
        {"plain", RevokerScenario::Plain},
        {"stalled", RevokerScenario::Stalled},
        {"stuck-epoch", RevokerScenario::StuckEpoch}};
    for (const auto &[coreName, core] : cores) {
        for (const bool skip : {false, true}) {
            for (const auto &[scenarioName, scenario] : scenarios) {
                for (uint64_t seed = 1; seed <= 3; ++seed) {
                    SCOPED_TRACE(std::string(coreName) + " skip=" +
                                 (skip ? "1" : "0") + " " + scenarioName +
                                 " seed=" + std::to_string(seed));
                    checkRevokerWindows(core, skip, scenario, seed);
                }
            }
        }
    }
}

TEST(EventTime, RevokerAdvanceIsFreeWhileIdle)
{
    Machine machine(sweepConfig(CoreConfig::ibex(), nullptr));
    BackgroundRevoker &engine = machine.backgroundRevoker();
    const std::vector<uint8_t> before = revokerState(engine);
    engine.advance(uint64_t{1} << 40, 0);
    EXPECT_EQ(revokerState(engine), before);
}

/** First cycle after @p now at which per-cycle tick() changes
 * fired() or revokerStalled(); kNever if none up to @p limit. */
uint64_t
firstChangeByTicking(FaultInjector &ref, uint64_t now, uint64_t limit)
{
    const bool fired = ref.fired();
    const bool stalled = ref.revokerStalled();
    for (uint64_t c = now + 1; c <= limit; ++c) {
        ref.tick(c);
        if (ref.fired() != fired || ref.revokerStalled() != stalled) {
            return c;
        }
    }
    return FaultInjector::kNever;
}

/** Walk every event of @p plan armed at @p now: nextEventCycle must
 * name exactly the cycles at which per-cycle ticking changes state. */
void
checkEventsMatchTicks(const FaultPlan &plan, uint64_t now, uint64_t seed)
{
    // Past the longest drawn stall window (1024 + 64 Ki cycles).
    constexpr uint64_t kHorizon = 100'000;
    FaultInjector fast(seed);
    FaultInjector ref(seed);
    fast.arm(plan);
    ref.arm(plan);
    if (!fault::isCycleTriggered(plan.site)) {
        EXPECT_EQ(fast.nextEventCycle(now), FaultInjector::kNever);
    }
    for (int events = 0;; ++events) {
        ASSERT_LT(events, 4) << "more events than a plan can produce";
        const uint64_t want = firstChangeByTicking(ref, now, now + kHorizon);
        const uint64_t got = fast.nextEventCycle(now);
        ASSERT_EQ(got, want) << "after cycle " << now;
        if (want == FaultInjector::kNever) {
            break;
        }
        fast.tick(got);
        EXPECT_EQ(fast.fired(), ref.fired());
        EXPECT_EQ(fast.revokerStalled(), ref.revokerStalled());
        now = got;
    }
    EXPECT_EQ(fast.stats().snapshot(), ref.stats().snapshot());
}

TEST(EventTime, NextEventCycleMatchesPerCycleTicksForEverySite)
{
    Rng rng(0xe7e27);
    for (uint32_t s = 0; s < fault::kFaultSiteCount; ++s) {
        for (int trial = 0; trial < 12; ++trial) {
            FaultPlan plan;
            plan.site = static_cast<FaultSite>(s);
            plan.triggerCycle = rng.below(6000);
            plan.param = 1 + rng.below(6000);
            // Armed before, at and after its trigger cycle.
            const uint64_t now = rng.below(8000);
            SCOPED_TRACE(std::string(fault::faultSiteName(plan.site)) +
                         " trial " + std::to_string(trial));
            checkEventsMatchTicks(plan, now, rng.next64());
        }
    }
}

TEST(EventTime, NextEventCycleMatchesPerCycleTicksForDrawnPlans)
{
    for (uint64_t seed = 0; seed < 200; ++seed) {
        FaultInjector planner(seed);
        const FaultPlan plan =
            planner.planNext(20'000, mem::kSramBase, 64u << 10);
        SCOPED_TRACE("seed " + std::to_string(seed));
        checkEventsMatchTicks(plan, seed * 37 % 5000, seed);
    }
}

TEST(EventTime, MallocStallDeadlineIsAnEvent)
{
    // An event-triggered site can still open a stall window: its
    // deadline is then a cycle event like any other.
    FaultPlan plan;
    plan.site = FaultSite::MallocStall;
    plan.param = 5000;
    FaultInjector fast(9);
    FaultInjector ref(9);
    fast.arm(plan);
    ref.arm(plan);
    EXPECT_EQ(fast.nextEventCycle(100), FaultInjector::kNever);
    fast.mallocBackoffStarted(100);
    ref.mallocBackoffStarted(100);
    ASSERT_TRUE(fast.revokerStalled());
    EXPECT_EQ(fast.nextEventCycle(100),
              firstChangeByTicking(ref, 100, 100'000));
    EXPECT_EQ(fast.nextEventCycle(100), 5100u);
}

/** Arm @p site on both machines' injectors; advance one machine in a
 * few coarse windows and the other one cycle at a time, with the same
 * stores between windows; both must end bit-identical. */
void
checkMachineWindows(const CoreConfig &core, FaultSite site, uint64_t seed)
{
    constexpr uint64_t kWindows = 4;
    Rng rng(seed);
    FaultInjector injectorA(seed);
    FaultInjector injectorB(seed);
    Machine a(sweepConfig(core, &injectorA));
    Machine b(sweepConfig(core, &injectorB));
    startSeededSweep(a, seed, false);
    startSeededSweep(b, seed, false);

    FaultPlan plan;
    plan.site = site;
    plan.triggerCycle = rng.below(4000); // Inside the first window.
    plan.addr = a.heapBase() + rng.below(a.machineConfig().heapSize / 8) * 8;
    plan.param = site == FaultSite::RevokerStall ? 1 + rng.below(4000)
                                                 : rng.below(64);
    injectorA.arm(plan);
    injectorB.arm(plan);

    for (uint64_t w = 0; w < kWindows; ++w) {
        const uint64_t n = 1000 + rng.below(5000);
        const uint64_t busy = rng.below(n + 16);
        a.advance(n, busy);
        for (uint64_t i = 0; i < n; ++i) {
            b.advance(1, i < busy ? 1 : 0);
        }
        storeBetweenWindows(rng, a, b);
    }
    EXPECT_TRUE(injectorA.fired());
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.stateDigest(), b.stateDigest());
    EXPECT_EQ(injectorA.stats().snapshot(), injectorB.stats().snapshot());
    EXPECT_EQ(injectorA.revokerStalled(), injectorB.revokerStalled());
    EXPECT_EQ(injectorA.suppressEpochIncrement(),
              injectorB.suppressEpochIncrement());
    EXPECT_EQ(a.simStats().snapshot(), b.simStats().snapshot());
}

TEST(EventTime, MachineWindowEqualsSingleCycleAdvances)
{
    for (const CoreConfig &core : {CoreConfig::ibex(), CoreConfig::flute()}) {
        for (uint32_t s = 0; s < fault::kFaultSiteCount; ++s) {
            const auto site = static_cast<FaultSite>(s);
            if (!fault::isCycleTriggered(site)) {
                continue;
            }
            for (uint64_t seed = 1; seed <= 2; ++seed) {
                SCOPED_TRACE(core.name + " " + fault::faultSiteName(site) +
                             " seed " + std::to_string(seed));
                checkMachineWindows(core, site, seed);
            }
        }
    }
}

TEST(EventTime, MachineAdvanceCountsCyclesInTheRegistry)
{
    Machine machine(sweepConfig(CoreConfig::flute(), nullptr));
    machine.advance(12345, 100);
    EXPECT_EQ(machine.cycles(), 12345u);
    EXPECT_EQ(machine.simStats().snapshot().at("machine.cycles"), 12345u);
}

} // namespace
} // namespace cheriot::sim
