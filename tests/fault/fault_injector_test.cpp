/**
 * @file
 * The fault-injection engine itself: seeded determinism, the
 * fail-safe corruption model (flips clear micro-tags, never forge),
 * the bus retry/backoff recovery, and the safety oracle — including
 * its falsifiability under the test-only forgery mode.
 */

#include "fault/fault_injector.h"

#include "mem/bus.h"
#include "mem/memory_map.h"
#include "mem/tagged_memory.h"
#include "rtos/kernel.h"
#include "sim/machine.h"

#include <gtest/gtest.h>

namespace cheriot::fault
{
namespace
{

using cap::Capability;
using sim::Machine;
using sim::MachineConfig;
using sim::TrapCause;

bool
plansEqual(const FaultPlan &a, const FaultPlan &b)
{
    return a.site == b.site && a.triggerCycle == b.triggerCycle &&
           a.triggerTransaction == b.triggerTransaction &&
           a.addr == b.addr && a.param == b.param;
}

TEST(FaultInjector, PlansAreDeterministicPerSeed)
{
    FaultInjector a(0x1234);
    FaultInjector b(0x1234);
    FaultInjector c(0x1235);
    bool anyDiffer = false;
    for (int i = 0; i < 32; ++i) {
        const FaultPlan pa = a.planNext(1'000'000, 0x20000000, 1 << 16);
        const FaultPlan pb = b.planNext(1'000'000, 0x20000000, 1 << 16);
        const FaultPlan pc = c.planNext(1'000'000, 0x20000000, 1 << 16);
        EXPECT_TRUE(plansEqual(pa, pb)) << "plan " << i;
        anyDiffer = anyDiffer || !plansEqual(pa, pc);
    }
    EXPECT_TRUE(anyDiffer) << "different seeds draw different plans";
}

TEST(FaultInjector, PlansCoverEverySite)
{
    FaultInjector injector(7);
    bool seen[kFaultSiteCount] = {};
    for (int i = 0; i < 256; ++i) {
        const FaultPlan plan =
            injector.planNext(1'000'000, 0x20000000, 1 << 16);
        seen[static_cast<uint32_t>(plan.site)] = true;
    }
    for (uint32_t s = 0; s < kFaultSiteCount; ++s) {
        EXPECT_TRUE(seen[s]) << faultSiteName(static_cast<FaultSite>(s));
    }
}

TEST(FaultInjector, FailSafeFlipClearsCoveringMicroTag)
{
    mem::TaggedMemory sram(0x20000000, 4096);
    sram.writeCap(0x20000000, 0x0123456789abcdefull, true);
    ASSERT_TRUE(sram.tagAt(0x20000000));

    // A flip in the low half clears that half's micro-tag, so the
    // architectural tag (the AND) drops.
    sram.injectDataFlip(0x20000000, 5, /*failSafe=*/true);
    EXPECT_FALSE(sram.tagAt(0x20000000));
    const auto raw = sram.readCap(0x20000000);
    EXPECT_FALSE(raw.halfTag0);
    EXPECT_TRUE(raw.halfTag1) << "the other half is untouched";
    EXPECT_EQ(raw.bits, 0x0123456789abcdefull ^ (1ull << 5));
}

TEST(FaultInjector, ForgeryModeLeavesTagIntact)
{
    mem::TaggedMemory sram(0x20000000, 4096);
    sram.writeCap(0x20000008, 0xffull, true);
    sram.injectDataFlip(0x20000008, 40, /*failSafe=*/false);
    EXPECT_TRUE(sram.tagAt(0x20000008))
        << "without the micro-tag protection the corruption is silent";
    EXPECT_EQ(sram.readCap(0x20000008).bits, 0xffull | (1ull << 40));
}

TEST(FaultInjector, TagClearDropsBothMicroTags)
{
    mem::TaggedMemory sram(0x20000000, 4096);
    sram.writeCap(0x20000010, 1, true);
    sram.injectTagClear(0x20000010);
    const auto raw = sram.readCap(0x20000010);
    EXPECT_FALSE(raw.tag);
    EXPECT_FALSE(raw.halfTag0);
    EXPECT_FALSE(raw.halfTag1);
    EXPECT_EQ(raw.bits, 1ull) << "data is untouched";
}

TEST(FaultInjector, BusRetryRecoversBoundedDropBurst)
{
    mem::Bus bus(mem::BusWidth::Narrow33);
    FaultInjector injector(42);
    FaultPlan plan;
    plan.site = FaultSite::BusDrop;
    plan.triggerTransaction = 0;
    plan.param = 3; // Within the retry budget.
    injector.arm(plan);

    const mem::BusResult result = bus.transact(2, &injector);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.retries, 3u);
    EXPECT_GT(result.extraCycles, 0u);
    EXPECT_EQ(bus.retries.value(), 3u);
    EXPECT_EQ(bus.errors.value(), 0u);

    // Subsequent transactions are clean (one-shot plan).
    const mem::BusResult clean = bus.transact(2, &injector);
    EXPECT_TRUE(clean.ok);
    EXPECT_EQ(clean.retries, 0u);
    EXPECT_EQ(clean.extraCycles, 0u);
}

TEST(FaultInjector, BusRetryBudgetExhaustionFaults)
{
    mem::Bus bus(mem::BusWidth::Narrow33);
    FaultInjector injector(42);
    FaultPlan plan;
    plan.site = FaultSite::BusDrop;
    plan.triggerTransaction = 0;
    plan.param = mem::Bus::kMaxRetries + 2; // Beyond the budget.
    injector.arm(plan);

    const mem::BusResult result = bus.transact(1, &injector);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.retries, mem::Bus::kMaxRetries);
    EXPECT_EQ(bus.errors.value(), 1u);
}

TEST(FaultInjector, BusBackoffDoublesPerRetry)
{
    mem::Bus bus(mem::BusWidth::Narrow33);
    FaultInjector one(1);
    FaultPlan plan;
    plan.site = FaultSite::BusDrop;
    plan.triggerTransaction = 0;
    plan.param = 1;
    one.arm(plan);
    const uint32_t oneRetry = bus.transact(1, &one).extraCycles;

    FaultInjector two(1);
    plan.param = 2;
    two.arm(plan);
    const uint32_t twoRetries = bus.transact(1, &two).extraCycles;
    // Second retry costs more than the first (exponential backoff).
    EXPECT_GT(twoRetries, 2 * oneRetry);
}

/** The bus ordinal counts every charged transaction, whatever plan is
 * armed: a bus plan re-armed mid-run (as the fleet's chaos schedule
 * re-arms a node's injector) lands on exactly the ordinal it names. */
TEST(FaultInjector, BusOrdinalCountsEveryTransaction)
{
    constexpr uint64_t k = 5;
    for (const FaultSite site : {FaultSite::BusDelay, FaultSite::BusDrop}) {
        SCOPED_TRACE(faultSiteName(site));
        FaultInjector injector(3);
        MachineConfig config;
        config.sramSize = 64u << 10;
        config.heapOffset = 32u << 10;
        config.heapSize = 16u << 10;
        config.injector = &injector;
        Machine machine(config);

        FaultPlan other;
        other.site = FaultSite::SwitchPortStall;
        injector.arm(other);
        const uint32_t addr = mem::kSramBase + 0x100;
        uint32_t value = 0;
        for (uint64_t i = 0; i < k; ++i) {
            ASSERT_EQ(machine.loadData(Capability::memoryRoot(), addr, 4,
                                       false, &value),
                      TrapCause::None);
        }

        FaultPlan plan;
        plan.site = site;
        plan.triggerTransaction = k + 3;
        plan.param = 2; // Two drops (within the retry budget) or beats.
        injector.arm(plan);
        for (uint64_t ordinal = k; ordinal <= k + 4; ++ordinal) {
            const uint64_t delayed = machine.bus().delayCycles.value();
            ASSERT_EQ(machine.loadData(Capability::memoryRoot(), addr, 4,
                                       false, &value),
                      TrapCause::None);
            EXPECT_EQ(injector.fired(), ordinal >= k + 3)
                << "transaction " << ordinal;
            EXPECT_EQ(machine.bus().delayCycles.value() != delayed,
                      ordinal == k + 3)
                << "transaction " << ordinal;
        }
        EXPECT_EQ(injector.busDelays.value(),
                  site == FaultSite::BusDelay ? 1u : 0u);
        EXPECT_EQ(injector.busDrops.value(),
                  site == FaultSite::BusDrop ? 2u : 0u);
        EXPECT_EQ(machine.bus().retries.value(),
                  site == FaultSite::BusDrop ? 2u : 0u);
    }
}

TEST(FaultInjector, FaultStormDeliversBurst)
{
    FaultInjector injector(9);
    FaultPlan plan;
    plan.site = FaultSite::FaultStorm;
    plan.triggerCycle = 10;
    plan.param = (0u << 8) | 6; // Six CheriTagViolation traps.
    injector.arm(plan);

    injector.tick(9);
    uint32_t cause = 0;
    EXPECT_FALSE(injector.takeSpuriousFault(&cause)) << "not yet";
    injector.tick(10);
    ASSERT_TRUE(injector.fired());
    for (int i = 0; i < 6; ++i) {
        EXPECT_TRUE(injector.takeSpuriousFault(&cause)) << "trap " << i;
        EXPECT_EQ(static_cast<TrapCause>(cause),
                  TrapCause::CheriTagViolation);
    }
    EXPECT_FALSE(injector.takeSpuriousFault(&cause)) << "storm drained";
    EXPECT_EQ(injector.spuriousFaults.value(), 6u);
}

TEST(FaultInjector, RevokerStallExpiresByItself)
{
    FaultInjector injector(11);
    FaultPlan plan;
    plan.site = FaultSite::RevokerStall;
    plan.triggerCycle = 100;
    plan.param = 50; // Stall window length.
    injector.arm(plan);

    injector.tick(100);
    EXPECT_TRUE(injector.revokerStalled());
    injector.tick(149);
    EXPECT_TRUE(injector.revokerStalled());
    injector.tick(150);
    EXPECT_FALSE(injector.revokerStalled()) << "deadline backstop";
}

TEST(FaultInjector, KickClearsStallAndStuckEpoch)
{
    FaultInjector injector(12);
    FaultPlan plan;
    plan.site = FaultSite::RevokerStuckEpoch;
    plan.triggerCycle = 0;
    injector.arm(plan);
    injector.tick(0);
    EXPECT_TRUE(injector.suppressEpochIncrement());
    injector.revokerKicked();
    EXPECT_FALSE(injector.suppressEpochIncrement());
    EXPECT_EQ(injector.kicksObserved.value(), 1u);
}

/** End-to-end oracle check on a full machine: a fail-safe flip makes
 * the capability unloadable; the forgery mode proves the oracle
 * would catch the alternative. */
TEST(FaultInjector, SafetyOracleFailSafeAndFalsifiable)
{
    for (const bool forgery : {false, true}) {
        FaultInjector injector(0xabcd);
        injector.setAllowForgery(forgery);
        MachineConfig config;
        config.sramSize = 256u << 10;
        config.heapOffset = 128u << 10;
        config.heapSize = 64u << 10;
        config.injector = &injector;
        Machine machine(config);
        rtos::Kernel kernel(machine);

        const uint32_t addr = mem::kSramBase + (100u << 10);
        const Capability auth =
            kernel.loader().dataCap(addr, 64);
        ASSERT_TRUE(auth.tag());
        ASSERT_EQ(machine.storeCap(auth, addr, auth), TrapCause::None);

        FaultPlan plan;
        plan.site = FaultSite::DataFlip;
        plan.triggerCycle = machine.cycles(); // Immediate.
        plan.addr = addr;
        plan.param = 3;
        injector.arm(plan);
        machine.idle(1);
        ASSERT_TRUE(injector.fired());
        EXPECT_TRUE(injector.isPoisoned(addr));

        Capability loaded;
        ASSERT_EQ(machine.loadCap(auth, addr, &loaded), TrapCause::None);
        if (forgery) {
            // Without the micro-tag fail-safe the corrupted granule
            // still loads as a valid capability: the oracle fires.
            EXPECT_TRUE(loaded.tag());
            EXPECT_EQ(injector.safetyViolations.value(), 1u);
        } else {
            // The fail-safe cleared the tag: the load yields an
            // untagged value and the oracle stays quiet.
            EXPECT_FALSE(loaded.tag());
            EXPECT_EQ(injector.safetyViolations.value(), 0u);
        }

        // A legitimate capability store repairs the granule.
        ASSERT_EQ(machine.storeCap(auth, addr, auth), TrapCause::None);
        EXPECT_FALSE(injector.isPoisoned(addr));
        Capability repaired;
        ASSERT_EQ(machine.loadCap(auth, addr, &repaired),
                  TrapCause::None);
        EXPECT_TRUE(repaired.tag());
        EXPECT_EQ(injector.safetyViolations.value(), forgery ? 1u : 0u);
    }
}

} // namespace
} // namespace cheriot::fault
