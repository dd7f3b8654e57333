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
 *     stuck epoch, and with snoops between windows; and in the short
 *     windows checked accesses leave (0-4 free cycles behind 1-2 busy
 *     beats), where whole words stop fitting, with an unaligned end
 *     register. The serialized revoker state and the whole SimStats
 *     snapshot (which also holds the unserialized bitmap lookups and
 *     completed sweeps) must match after every window;
 *   - FaultInjector::nextEventCycle(now) against the first cycle at
 *     which per-cycle tick() changes fired() or revokerStalled();
 *   - Machine::advance(N, busy) windows against N single-cycle
 *     advances, each followed by an injector tick, with an injector
 *     armed for every site: windows ending one cycle before, at and
 *     one cycle after its next event, with stalls opened, kicks and
 *     re-arms (one with its trigger already past) between windows.
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
 * revoked granules) and kick a sweep over it, ending @p endShort bytes
 * before the end of the heap. */
void
startSeededSweep(Machine &machine, uint64_t seed, bool skipSecondHalf,
                 uint32_t endShort = 0)
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
    engine.write32(0x4, heap + size - endShort);
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
        ASSERT_EQ(a.simStats().snapshot(), b.simStats().snapshot())
            << "window " << window;
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

/** A whole sweep in the windows checked accesses leave behind them:
 * 1-2 busy beats, then 0-4 free cycles, with now and then a long
 * stretch of free cycles (a switcher entry path). */
void
checkShortWindows(const CoreConfig &core, bool skipSecondHalf,
                  uint32_t endShort, uint64_t seed)
{
    Machine a(sweepConfig(core, nullptr));
    Machine b(sweepConfig(core, nullptr));
    startSeededSweep(a, seed, skipSecondHalf, endShort);
    startSeededSweep(b, seed, skipSecondHalf, endShort);
    BackgroundRevoker &fast = a.backgroundRevoker();
    BackgroundRevoker &ref = b.backgroundRevoker();
    ASSERT_TRUE(fast.sweeping());

    Rng rng(seed ^ 0x5407);
    int window = 0;
    for (; fast.sweeping() && window < 40'000; ++window) {
        const uint64_t busy = 1 + rng.below(2);
        const uint64_t free = rng.chance(1, 16) ? 120 : rng.below(5);
        fast.advance(busy + free, busy);
        for (uint64_t i = 0; i < busy + free; ++i) {
            ref.tick(i >= busy);
        }
        ASSERT_EQ(revokerState(fast), revokerState(ref))
            << "window " << window << " (free=" << free << ")";
        ASSERT_EQ(a.simStats().snapshot(), b.simStats().snapshot())
            << "window " << window;
        if (rng.chance(1, 4)) {
            storeBetweenWindows(rng, a, b);
        }
    }
    EXPECT_FALSE(fast.sweeping()) << "sweep unfinished after " << window;
    EXPECT_GT(fast.tagsInvalidated.value(), 0u);
    EXPECT_EQ(a.stateDigest(), b.stateDigest());
}

TEST(EventTime, WholeWordSweepEqualsPerCycleTicksInShortWindows)
{
    for (const CoreConfig &core : {CoreConfig::ibex(), CoreConfig::flute()}) {
        for (const bool skip : {false, true}) {
            // An aligned end register, and ends 3 and 12 bytes short:
            // the last word is still swept whole.
            for (const uint32_t endShort : {0u, 3u, 12u}) {
                for (uint64_t seed = 1; seed <= 2; ++seed) {
                    SCOPED_TRACE(core.name + " skip=" +
                                 (skip ? "1" : "0") + " endShort=" +
                                 std::to_string(endShort) + " seed=" +
                                 std::to_string(seed));
                    checkShortWindows(core, skip, endShort, seed);
                }
            }
        }
    }
}

TEST(EventTime, RevokedWordWritebackCanFallInTheNextWindow)
{
    for (const CoreConfig &core : {CoreConfig::ibex(), CoreConfig::flute()}) {
        SCOPED_TRACE(core.name);
        Machine a(sweepConfig(core, nullptr));
        Machine b(sweepConfig(core, nullptr));
        const uint32_t slot = a.heapBase() + 0x100;
        const uint32_t target = a.heapBase() + 0x200;
        for (Machine *m : {&a, &b}) {
            const Capability ref =
                Capability::memoryRoot().withAddress(target).withBounds(16);
            ASSERT_EQ(m->storeCap(Capability::memoryRoot(), slot, ref,
                                  /*charge=*/false),
                      TrapCause::None);
            m->revocationBitmap().setRange(target, 16);
            BackgroundRevoker &engine = m->backgroundRevoker();
            engine.write32(0x0, slot);
            engine.write32(0x4, slot + 16);
            engine.write32(0xc, 1);
        }
        BackgroundRevoker &fast = a.backgroundRevoker();
        BackgroundRevoker &ref = b.backgroundRevoker();
        const uint64_t loadBeats = mem::capBeats(core.bus);
        // Window 1 ends right after the revoked word's last load beat.
        const uint64_t busy = 2;
        fast.advance(busy + loadBeats, busy);
        for (uint64_t i = 0; i < busy + loadBeats; ++i) {
            ref.tick(i >= busy);
        }
        EXPECT_EQ(revokerState(fast), revokerState(ref));
        EXPECT_EQ(a.simStats().snapshot(), b.simStats().snapshot());
        EXPECT_TRUE(a.memory().sram().tagAt(slot)) << "written back early";
        EXPECT_EQ(fast.tagsInvalidated.value(), 0u);
        // Window 2's first free cycle is the writeback; the rest sweep
        // the untagged word after it and complete.
        fast.advance(busy + 8, busy);
        for (uint64_t i = 0; i < busy + 8; ++i) {
            ref.tick(i >= busy);
        }
        EXPECT_EQ(revokerState(fast), revokerState(ref));
        EXPECT_EQ(a.simStats().snapshot(), b.simStats().snapshot());
        EXPECT_FALSE(a.memory().sram().tagAt(slot));
        EXPECT_EQ(fast.tagsInvalidated.value(), 1u);
        EXPECT_FALSE(fast.sweeping());
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

/** The injector state a window can change: fired, stalled and the
 * held epoch. */
void
expectSameInjectors(const FaultInjector &a, const FaultInjector &b)
{
    EXPECT_EQ(a.fired(), b.fired());
    EXPECT_EQ(a.revokerStalled(), b.revokerStalled());
    EXPECT_EQ(a.suppressEpochIncrement(), b.suppressEpochIncrement());
}

/**
 * Arm @p site on both machines' injectors; advance machine a in coarse
 * windows and machine b one cycle at a time, ticking b's injector after
 * every cycle as the per-cycle reference, and require equal state
 * after every window. Most windows end one cycle before the injector's
 * next event, at it or one cycle after it. Between windows both get
 * the same stores, malloc backoffs (opening a MallocStall stall),
 * charged revoker kicks through MMIO (clearing a stall, and each one
 * bus transaction) and two re-arms, the first with its trigger already
 * past, as the fleet's chaos schedule re-arms a node's injector.
 */
void
checkMachineWindows(const CoreConfig &core, FaultSite site, uint64_t seed)
{
    constexpr int kWindows = 12;
    Rng rng(seed);
    FaultInjector injectorA(seed);
    FaultInjector injectorB(seed);
    Machine a(sweepConfig(core, &injectorA));
    Machine b(sweepConfig(core, &injectorB));
    startSeededSweep(a, seed, false);
    startSeededSweep(b, seed, false);

    const auto arm = [&](uint64_t triggerCycle) {
        FaultPlan plan;
        plan.site = site;
        plan.triggerCycle = triggerCycle;
        plan.triggerTransaction = rng.below(3);
        plan.addr =
            a.heapBase() + rng.below(a.machineConfig().heapSize / 8) * 8;
        // Stalls short enough to end inside the test; else a bit index.
        plan.param = site == FaultSite::RevokerStall ||
                             site == FaultSite::MallocStall
                         ? 1 + rng.below(4000)
                         : rng.below(64);
        injectorA.arm(plan);
        injectorB.arm(plan);
    };
    arm(rng.below(4000));

    uint64_t nearEvent = 0;
    for (int w = 0; w < kWindows; ++w) {
        SCOPED_TRACE("window " + std::to_string(w));
        const uint64_t event = injectorA.nextEventCycle(a.cycles());
        // One cycle before the event, at it, one after it in turn.
        const uint64_t n = event != FaultInjector::kNever && w % 4 != 3
                               ? event - a.cycles() - 1 + nearEvent++ % 3
                               : 1000 + rng.below(5000);
        const uint64_t busy = rng.below(n + 16);
        a.advance(n, busy);
        for (uint64_t i = 0; i < n; ++i) {
            b.advance(1, i < busy ? 1 : 0);
            injectorB.tick(b.cycles());
        }
        ASSERT_EQ(a.cycles(), b.cycles());
        expectSameInjectors(injectorA, injectorB);
        ASSERT_EQ(a.stateDigest(), b.stateDigest());

        if (w == 5) {
            arm(a.cycles() - 1 - rng.below(1000));
        } else if (w == 8) {
            arm(a.cycles() + rng.below(4000));
        }
        storeBetweenWindows(rng, a, b);
        if (w % 4 == 0 || rng.chance(1, 3)) {
            injectorA.mallocBackoffStarted(a.cycles());
            injectorB.mallocBackoffStarted(b.cycles());
        }
        if (w % 4 == 1) {
            // A BusDrop past the retry budget fails it on both.
            EXPECT_EQ(a.storeData(Capability::memoryRoot(),
                                  mem::kRevokerMmioBase + 0xc, 4, 1),
                      b.storeData(Capability::memoryRoot(),
                                  mem::kRevokerMmioBase + 0xc, 4, 1));
        }
    }
    if (fault::isCycleTriggered(site) || site == FaultSite::MallocStall) {
        EXPECT_TRUE(injectorA.fired());
        EXPECT_GT(nearEvent, 0u);
    }
    EXPECT_EQ(a.stateDigest(), b.stateDigest());
    EXPECT_EQ(injectorA.stats().snapshot(), injectorB.stats().snapshot());
    EXPECT_EQ(a.simStats().snapshot(), b.simStats().snapshot());
}

TEST(EventTime, MachineWindowEqualsSingleCycleAdvances)
{
    for (const CoreConfig &core : {CoreConfig::ibex(), CoreConfig::flute()}) {
        for (uint32_t s = 0; s < fault::kFaultSiteCount; ++s) {
            const auto site = static_cast<FaultSite>(s);
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
