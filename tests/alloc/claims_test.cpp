/**
 * @file
 * Tests for heap claims (the CHERIoT RTOS heap_claim API): shared
 * buffer lifetime across mutually distrusting compartments — a
 * receiver claims a buffer so the sender's free cannot revoke it
 * mid-use; the memory is quarantined only when the last claim drops.
 */

#include "rtos/kernel.h"
#include "sim/machine.h"

#include <gtest/gtest.h>

namespace cheriot::alloc
{
namespace
{

using cap::Capability;
using sim::TrapCause;

class ClaimsTest : public ::testing::TestWithParam<TemporalMode>
{
  protected:
    ClaimsTest() : machine(config()), kernel(machine)
    {
        kernel.initHeap(GetParam());
        thread = &kernel.createThread("main", 1, 4096);
        kernel.activate(*thread);
    }

    static sim::MachineConfig config()
    {
        sim::MachineConfig c;
        c.core = sim::CoreConfig::ibex();
        c.sramSize = 192u << 10;
        c.heapOffset = 128u << 10;
        c.heapSize = 64u << 10;
        return c;
    }

    sim::Machine machine;
    rtos::Kernel kernel;
    rtos::Thread *thread = nullptr;
};

TEST_P(ClaimsTest, ClaimKeepsMemoryAliveAcrossFree)
{
    auto &allocator = kernel.allocator();
    const Capability buffer = allocator.malloc(64);
    ASSERT_TRUE(buffer.tag());
    kernel.guest().storeWord(buffer, buffer.base(), 0xfeed);

    // The receiver claims before the sender frees.
    ASSERT_EQ(allocator.claim(buffer), HeapAllocator::FreeResult::Ok);
    EXPECT_EQ(allocator.claimCount(buffer), 1u);

    // Sender frees: the memory must survive (not zeroed, not
    // revoked, still readable through held capabilities).
    ASSERT_EQ(allocator.free(buffer), HeapAllocator::FreeResult::Ok);
    EXPECT_EQ(kernel.guest().loadWord(buffer, buffer.base()), 0xfeedu);

    // A stashed copy also survives a revocation pass: the bits were
    // never painted.
    const Capability stash = allocator.malloc(16);
    ASSERT_EQ(machine.storeCap(stash, stash.base(), buffer),
              TrapCause::None);
    allocator.synchronise();
    Capability reloaded;
    ASSERT_EQ(machine.loadCap(stash, stash.base(), &reloaded),
              TrapCause::None);
    EXPECT_TRUE(reloaded.tag()) << "claimed memory must not be revoked";

    // The receiver's free is the last claim: now it really dies.
    ASSERT_EQ(allocator.free(buffer), HeapAllocator::FreeResult::Ok);
    if (GetParam() != TemporalMode::None) {
        ASSERT_EQ(machine.loadCap(stash, stash.base(), &reloaded),
                  TrapCause::None);
        EXPECT_FALSE(reloaded.tag());
    }
    ASSERT_EQ(allocator.free(stash), HeapAllocator::FreeResult::Ok);
}

TEST_P(ClaimsTest, MultipleClaimsNeedMatchingFrees)
{
    auto &allocator = kernel.allocator();
    const Capability buffer = allocator.malloc(128);
    ASSERT_TRUE(buffer.tag());
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(allocator.claim(buffer), HeapAllocator::FreeResult::Ok);
    }
    EXPECT_EQ(allocator.claimCount(buffer), 3u);

    // Three frees consume the claims; the allocation survives each.
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(allocator.free(buffer), HeapAllocator::FreeResult::Ok);
        uint32_t probe = 0;
        EXPECT_EQ(machine.loadData(buffer, buffer.base(), 4, false,
                                   &probe, false),
                  TrapCause::None);
    }
    EXPECT_EQ(allocator.claimCount(buffer), 0u);
    // The fourth free is final.
    ASSERT_EQ(allocator.free(buffer), HeapAllocator::FreeResult::Ok);
    if (GetParam() != TemporalMode::None) {
        EXPECT_NE(allocator.free(buffer), HeapAllocator::FreeResult::Ok)
            << "now it is a double free";
    }
}

TEST_P(ClaimsTest, ClaimRejectsGarbage)
{
    auto &allocator = kernel.allocator();
    EXPECT_NE(allocator.claim(Capability()), HeapAllocator::FreeResult::Ok);
    const Capability outside = Capability::memoryRoot()
                                   .withAddress(mem::kSramBase)
                                   .withBounds(64);
    EXPECT_NE(allocator.claim(outside), HeapAllocator::FreeResult::Ok);
    // A freed pointer cannot be claimed back to life.
    const Capability dead = allocator.malloc(32);
    ASSERT_EQ(allocator.free(dead), HeapAllocator::FreeResult::Ok);
    if (GetParam() != TemporalMode::None) {
        EXPECT_NE(allocator.claim(dead), HeapAllocator::FreeResult::Ok);
    }
}

TEST_P(ClaimsTest, ClaimsOnDistinctAllocationsAreIndependent)
{
    auto &allocator = kernel.allocator();
    const Capability a = allocator.malloc(48);
    const Capability b = allocator.malloc(48);
    ASSERT_EQ(allocator.claim(a), HeapAllocator::FreeResult::Ok);
    EXPECT_EQ(allocator.claimCount(a), 1u);
    EXPECT_EQ(allocator.claimCount(b), 0u);

    // b dies immediately; a survives its first free.
    ASSERT_EQ(allocator.free(b), HeapAllocator::FreeResult::Ok);
    ASSERT_EQ(allocator.free(a), HeapAllocator::FreeResult::Ok);
    uint32_t probe = 0;
    EXPECT_EQ(machine.loadData(a, a.base(), 4, false, &probe, false),
              TrapCause::None);
    ASSERT_EQ(allocator.free(a), HeapAllocator::FreeResult::Ok);
}

TEST_P(ClaimsTest, HeapStaysBalancedThroughClaimChurn)
{
    auto &allocator = kernel.allocator();
    const uint64_t before =
        allocator.freeBytes() + allocator.quarantinedBytes();
    for (int round = 0; round < 40; ++round) {
        const Capability ptr = allocator.malloc(100 + round);
        ASSERT_TRUE(ptr.tag());
        ASSERT_EQ(allocator.claim(ptr), HeapAllocator::FreeResult::Ok);
        ASSERT_EQ(allocator.free(ptr), HeapAllocator::FreeResult::Ok);
        ASSERT_EQ(allocator.free(ptr), HeapAllocator::FreeResult::Ok);
    }
    allocator.synchronise();
    const uint64_t after =
        allocator.freeBytes() + allocator.quarantinedBytes();
    EXPECT_EQ(before, after) << "claim records must not leak";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ClaimsTest,
    ::testing::Values(TemporalMode::None,
                      TemporalMode::SoftwareRevocation,
                      TemporalMode::HardwareRevocation),
    [](const ::testing::TestParamInfo<TemporalMode> &info) {
        return std::string(temporalModeName(info.param));
    });

/** An over-revoked claim record (its box's revocation bit painted, as
 * an injected bitmap fault does): the last claim's free unlinks the
 * record, and releasing the box is refused and counted instead of
 * aborting. The box stays allocated and internal. */
TEST(ClaimRecord, OverRevokedRecordBoxIsRefusedNotFatal)
{
    sim::MachineConfig config;
    config.sramSize = 192u << 10;
    config.heapOffset = 128u << 10;
    config.heapSize = 64u << 10;
    sim::Machine machine(config);
    rtos::Kernel kernel(machine);
    kernel.initHeap(TemporalMode::SoftwareRevocation);
    kernel.activate(kernel.createThread("main", 1, 4096));
    auto &allocator = kernel.allocator();
    const Capability buffer = allocator.malloc(64);
    ASSERT_EQ(allocator.claim(buffer), HeapAllocator::FreeResult::Ok);

    const auto recordBox = [&] {
        uint32_t box = 0;
        allocator.forEachChunk(
            [&](uint32_t chunk, uint32_t, bool inUse, bool internal) {
                if (inUse && internal) {
                    box = chunk + kPayloadOffset;
                }
            });
        return box;
    };
    const uint32_t box = recordBox();
    ASSERT_NE(box, 0u);
    machine.revocationBitmap().setRange(box, 1);

    const uint64_t rejected = allocator.rejectedFrees.value();
    ASSERT_EQ(allocator.free(buffer), HeapAllocator::FreeResult::Ok);
    EXPECT_EQ(allocator.claimCount(buffer), 0u);
    EXPECT_EQ(allocator.rejectedFrees.value(), rejected + 1);
    EXPECT_EQ(recordBox(), box);
    // The allocation's own claim is the last: this free releases it.
    EXPECT_EQ(allocator.free(buffer), HeapAllocator::FreeResult::Ok);
    EXPECT_EQ(allocator.free(buffer),
              HeapAllocator::FreeResult::NotAllocated);
}

} // namespace
} // namespace cheriot::alloc
