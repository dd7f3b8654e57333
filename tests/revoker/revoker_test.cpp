/**
 * @file
 * Tests for the temporal-safety machinery: the revocation bitmap, the
 * load-filter invariant, the software sweep (§3.3.2), the background
 * pipelined revoker with its store-snoop race handling (§3.3.3), and
 * the epoch/reuse rules.
 */

#include "isa/assembler.h"
#include "mem/memory_map.h"
#include "revoker/background_revoker.h"
#include "revoker/revocation_bitmap.h"
#include "revoker/revoker.h"
#include "revoker/software_revoker.h"
#include "sim/machine.h"

#include <gtest/gtest.h>

namespace cheriot::revoker
{
namespace
{

using cap::Capability;
using sim::Machine;
using sim::MachineConfig;
using sim::TrapCause;

MachineConfig
config(sim::CoreConfig core = sim::CoreConfig::ibex())
{
    MachineConfig c;
    c.core = core;
    c.sramSize = 128u << 10;
    c.heapOffset = 64u << 10;
    c.heapSize = 32u << 10;
    return c;
}

TEST(RevocationBitmap, SetTestClearRanges)
{
    RevocationBitmap bitmap(0x20010000, 0x8000);
    EXPECT_FALSE(bitmap.isRevoked(0x20010000));

    bitmap.setRange(0x20010100, 64);
    EXPECT_TRUE(bitmap.isRevoked(0x20010100));
    EXPECT_TRUE(bitmap.isRevoked(0x2001013f));
    EXPECT_FALSE(bitmap.isRevoked(0x200100f8));
    EXPECT_FALSE(bitmap.isRevoked(0x20010140));
    EXPECT_EQ(bitmap.paintedBits(), 8u);

    bitmap.clearRange(0x20010100, 64);
    EXPECT_EQ(bitmap.paintedBits(), 0u);

    // Addresses outside the window are never revoked.
    EXPECT_FALSE(bitmap.isRevoked(0x10000000));
}

TEST(RevocationBitmap, GranuleRounding)
{
    RevocationBitmap bitmap(0x20010000, 0x1000);
    // A 1-byte range still paints its whole granule.
    bitmap.setRange(0x20010009, 1);
    EXPECT_TRUE(bitmap.isRevoked(0x20010008));
    EXPECT_TRUE(bitmap.isRevoked(0x2001000f));
    EXPECT_FALSE(bitmap.isRevoked(0x20010010));
}

TEST(RevocationBitmap, MmioView)
{
    RevocationBitmap bitmap(0x20010000, 0x1000);
    bitmap.write32(0, 0xffffffff);
    EXPECT_TRUE(bitmap.isRevoked(0x20010000));
    EXPECT_TRUE(bitmap.isRevoked(0x200100f8)); // bit 31 covers +0xf8
    EXPECT_EQ(bitmap.read32(0), 0xffffffffu);
    bitmap.write32(0, 0);
    EXPECT_EQ(bitmap.paintedBits(), 0u);
}

TEST(EpochRules, SafeToReuse)
{
    // Freed while idle (even epoch): safe after the next full sweep.
    EXPECT_FALSE(Revoker::safeToReuse(0, 0));
    EXPECT_FALSE(Revoker::safeToReuse(0, 1));
    EXPECT_TRUE(Revoker::safeToReuse(0, 2));
    // Freed mid-sweep (odd epoch): that sweep may have passed the
    // chunk already, so a later complete sweep is required.
    EXPECT_FALSE(Revoker::safeToReuse(1, 2));
    EXPECT_FALSE(Revoker::safeToReuse(1, 3));
    EXPECT_TRUE(Revoker::safeToReuse(1, 4));
    EXPECT_TRUE(Revoker::safeToReuse(4, 6));
    EXPECT_FALSE(Revoker::safeToReuse(5, 7));
    EXPECT_TRUE(Revoker::safeToReuse(5, 8));
}

class SweepFixture : public ::testing::Test
{
  protected:
    SweepFixture() : machine(config()) {}

    /** Stash a capability to heap address @p target at @p slot. */
    void plantCap(uint32_t slot, uint32_t target, uint32_t length)
    {
        const Capability ref =
            Capability::memoryRoot().withAddress(target).withBounds(length);
        ASSERT_TRUE(ref.tag());
        ASSERT_EQ(machine.storeCap(Capability::memoryRoot(), slot, ref),
                  TrapCause::None);
    }

    bool tagAt(uint32_t slot)
    {
        Capability loaded;
        // Bypass the filter to observe raw memory state.
        machine.loadFilter().setEnabled(false);
        const TrapCause cause =
            machine.loadCap(Capability::memoryRoot(), slot, &loaded);
        machine.loadFilter().setEnabled(true);
        return cause == TrapCause::None && loaded.tag();
    }

    Machine machine;
};

TEST_F(SweepFixture, SoftwareSweepInvalidatesOnlyStaleCaps)
{
    const uint32_t heap = machine.heapBase();
    const uint32_t freedObj = heap + 0x100;
    const uint32_t liveObj = heap + 0x200;
    const uint32_t slotStale = heap + 0x1000;
    const uint32_t slotLive = heap + 0x1008;

    plantCap(slotStale, freedObj, 32);
    plantCap(slotLive, liveObj, 32);
    machine.revocationBitmap().setRange(freedObj, 32);

    SoftwareRevoker revoker(machine, Capability::memoryRoot(), heap,
                            32u << 10);
    EXPECT_EQ(revoker.epoch(), 0u);
    const uint64_t before = machine.cycles();
    revoker.requestSweep();
    EXPECT_EQ(revoker.epoch(), 2u);
    EXPECT_GT(machine.cycles(), before);

    EXPECT_FALSE(tagAt(slotStale)) << "stale capability must be revoked";
    EXPECT_TRUE(tagAt(slotLive)) << "live capability must survive";
    EXPECT_EQ(revoker.wordsSwept.value(), (32u << 10) / 8);
}

TEST_F(SweepFixture, SoftwareSweepCostScalesWithWindow)
{
    SoftwareRevoker small(machine, Capability::memoryRoot(),
                          machine.heapBase(), 8u << 10);
    SoftwareRevoker large(machine, Capability::memoryRoot(),
                          machine.heapBase(), 32u << 10);

    const uint64_t t0 = machine.cycles();
    small.requestSweep();
    const uint64_t smallCost = machine.cycles() - t0;
    const uint64_t t1 = machine.cycles();
    large.requestSweep();
    const uint64_t largeCost = machine.cycles() - t1;
    EXPECT_NEAR(static_cast<double>(largeCost) / smallCost, 4.0, 0.5);
}

TEST_F(SweepFixture, BackgroundRevokerSweepsDuringFreeCycles)
{
    const uint32_t heap = machine.heapBase();
    const uint32_t freedObj = heap + 0x100;
    const uint32_t slot = heap + 0x1000;
    plantCap(slot, freedObj, 32);
    machine.revocationBitmap().setRange(freedObj, 32);

    auto &engine = machine.backgroundRevoker();
    engine.write32(0x0, heap);
    engine.write32(0x4, heap + (32u << 10));
    EXPECT_EQ(engine.read32(0x8), 0u);
    engine.write32(0xc, 1); // kick
    EXPECT_EQ(engine.read32(0x8), 1u); // odd: sweeping

    // Idle cycles hand the port to the engine.
    uint64_t guard = 0;
    while (engine.sweeping() && guard++ < 1u << 20) {
        machine.idle(64);
    }
    EXPECT_FALSE(engine.sweeping());
    EXPECT_EQ(engine.read32(0x8), 2u);
    EXPECT_FALSE(tagAt(slot));
    EXPECT_EQ(engine.tagsInvalidated.value(), 1u);
    // Kick with nothing stale: writes happen only for invalidation.
    EXPECT_LT(engine.tagsInvalidated.value(), engine.wordsExamined.value());
}

TEST_F(SweepFixture, BackgroundRevokerYieldsToMainPipeline)
{
    auto &engine = machine.backgroundRevoker();
    engine.write32(0x0, machine.heapBase());
    engine.write32(0x4, machine.heapBase() + (32u << 10));
    engine.write32(0xc, 1);

    // With the port always busy the engine makes no progress.
    const uint64_t examined = engine.wordsExamined.value();
    machine.advance(1000, 1000);
    EXPECT_EQ(engine.wordsExamined.value(), examined);
    EXPECT_TRUE(engine.sweeping());

    // With it free, the sweep completes.
    while (engine.sweeping()) {
        machine.idle(256);
    }
    EXPECT_FALSE(engine.sweeping());
}

TEST_F(SweepFixture, BackgroundRevokerSnoopsMainPipelineStores)
{
    // The §3.3.3 race: the revoker has a word in flight, the main
    // pipeline overwrites it, and the revoker must not write back the
    // stale image.
    const uint32_t heap = machine.heapBase();
    const uint32_t freedObj = heap + 0x100;
    const uint32_t slot = heap + 0x1000;
    plantCap(slot, freedObj, 32);
    machine.revocationBitmap().setRange(freedObj, 32);

    auto &engine = machine.backgroundRevoker();
    engine.write32(0x0, slot); // sweep exactly the slot's granule
    engine.write32(0x4, slot + 8);
    engine.write32(0xc, 1);

    // One tick: the (Ibex) engine has issued the first beat of its
    // load; the word is now in flight.
    engine.tick(true);
    ASSERT_TRUE(engine.sweeping());

    // Main pipeline stores a *live* capability to the same address.
    const uint32_t liveObj = heap + 0x200;
    const Capability live =
        Capability::memoryRoot().withAddress(liveObj).withBounds(32);
    ASSERT_EQ(machine.storeCap(Capability::memoryRoot(), slot, live),
              TrapCause::None);

    while (engine.sweeping()) {
        machine.idle(16);
    }
    EXPECT_GE(engine.snoopReloads.value(), 1u);
    EXPECT_TRUE(tagAt(slot))
        << "the revoker must reload after a snoop hit, not clobber the "
           "fresh store";
}

TEST_F(SweepFixture, KickWhileSweepingHasNoEffect)
{
    auto &engine = machine.backgroundRevoker();
    engine.write32(0x0, machine.heapBase());
    engine.write32(0x4, machine.heapBase() + 4096);
    engine.write32(0xc, 1);
    EXPECT_EQ(engine.epoch(), 1u);
    engine.write32(0xc, 1); // second kick mid-sweep
    EXPECT_EQ(engine.epoch(), 1u);
    while (engine.sweeping()) {
        machine.idle(64);
    }
    EXPECT_EQ(engine.epoch(), 2u);
}

TEST_F(SweepFixture, SkipSecondHalfOptimizationPreservesBehaviour)
{
    const uint32_t heap = machine.heapBase();
    const uint32_t freedObj = heap + 0x100;
    const uint32_t slot = heap + 0x1000;
    plantCap(slot, freedObj, 32);
    // Also an untagged word next to it.
    machine.memory().sram().write32(slot + 8, 0x1234);
    machine.revocationBitmap().setRange(freedObj, 32);

    auto &engine = machine.backgroundRevoker();
    engine.setSkipSecondHalfLoad(true);
    engine.write32(0x0, heap);
    engine.write32(0x4, heap + (32u << 10));
    engine.write32(0xc, 1);
    while (engine.sweeping()) {
        machine.idle(64);
    }
    EXPECT_FALSE(tagAt(slot));
    // The optimization saves port cycles versus examining each word
    // with two beats: with almost all tags clear, roughly one beat
    // per word suffices.
    EXPECT_LT(engine.portCycles.value(),
              (uint64_t{32u << 10} / 8) * 2);
}

/** The revoker's MMIO window is 0x100 bytes but only 0x0-0xc are
 * assigned: the rest must read as zero and ignore writes, like every
 * other device, rather than abort the host. */
class RevokerMmioFixture : public ::testing::Test
{
  protected:
    RevokerMmioFixture() : machine(config())
    {
        engine().write32(0x0, machine.heapBase());
        engine().write32(0x4, machine.heapBase() + 64);
    }

    BackgroundRevoker &engine() { return machine.backgroundRevoker(); }

    void expectRegistersUnchanged()
    {
        EXPECT_EQ(engine().read32(0x0), machine.heapBase());
        EXPECT_EQ(engine().read32(0x4), machine.heapBase() + 64);
        EXPECT_EQ(engine().read32(0x8), 0u);
        EXPECT_FALSE(engine().sweeping());
        EXPECT_EQ(engine().kicksReceived.value(), 0u);
    }

    Machine machine;
};

TEST_F(RevokerMmioFixture, UnassignedOffsetsReadZeroAndIgnoreWrites)
{
    const Capability window = Capability::memoryRoot()
                                  .withAddress(mem::kRevokerMmioBase)
                                  .withBounds(mem::kRevokerMmioSize);
    ASSERT_TRUE(window.tag());
    for (const uint32_t offset : {0x10u, 0xfcu}) {
        const uint32_t addr = mem::kRevokerMmioBase + offset;
        uint32_t value = 0xdeadbeef;
        EXPECT_EQ(machine.loadData(window, addr, 4, false, &value),
                  TrapCause::None);
        EXPECT_EQ(value, 0u);
        EXPECT_EQ(machine.storeData(window, addr, 4, 0xffffffffu),
                  TrapCause::None);
    }
    expectRegistersUnchanged();
}

TEST_F(RevokerMmioFixture, GuestLoadFromUnassignedOffsetDoesNotTrap)
{
    using namespace cheriot::isa;
    constexpr uint32_t kEntry = mem::kSramBase + 0x1000;
    Assembler a(kEntry);
    a.li(T0, static_cast<int32_t>(mem::kRevokerMmioBase + 0x10));
    a.csetaddr(A2, A0, T0); // memory root -> revoker window + 0x10
    a.li(A3, 0x55);
    a.lw(A3, A2, 0);
    a.ebreak();
    machine.loadProgram(a.finish(), kEntry);
    machine.resetCpu(kEntry);
    machine.run(100);
    EXPECT_EQ(machine.haltReason(), sim::HaltReason::Breakpoint);
    EXPECT_EQ(machine.trapCount(), 0u);
    EXPECT_EQ(machine.readRegInt(A3), 0u);
    expectRegistersUnchanged();
}

} // namespace
} // namespace cheriot::revoker
