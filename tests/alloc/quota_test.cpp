/**
 * @file
 * Per-compartment heap-quota tests: the ledger's accounting, the
 * allocator's typed (never-aborting) failure modes, quota charges
 * that persist through quarantine and drain back under revocation
 * backpressure, the sealed allocator-capability flow through the
 * kernel, and the injected revoker-stall-during-blocking-malloc
 * fault site.
 */

#include "alloc/alloc_result.h"
#include "alloc/heap_allocator.h"
#include "alloc/quota.h"
#include "fault/fault_injector.h"
#include "rtos/kernel.h"
#include "sim/machine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

namespace cheriot
{
namespace
{

using alloc::AllocResult;
using alloc::HeapAllocator;
using alloc::QuotaId;
using alloc::QuotaLedger;
using cap::Capability;

TEST(QuotaLedger, ChargesCreditsAndDenies)
{
    QuotaLedger ledger;
    const QuotaId id = ledger.create(1000);
    ASSERT_NE(id, alloc::kUnmeteredQuota);
    EXPECT_EQ(ledger.count(), 1u);

    EXPECT_TRUE(ledger.charge(id, 600));
    const QuotaLedger::Entry *entry = ledger.entry(id);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->used, 600u);
    EXPECT_EQ(entry->peak, 600u);

    // A denied charge leaves the ledger untouched and is counted.
    EXPECT_FALSE(ledger.charge(id, 500));
    EXPECT_EQ(entry->used, 600u);
    EXPECT_EQ(entry->denials, 1u);
    EXPECT_EQ(ledger.totalDenials(), 1u);

    ledger.credit(id, 200);
    EXPECT_EQ(entry->used, 400u);
    EXPECT_TRUE(ledger.charge(id, 500));
    EXPECT_EQ(entry->used, 900u);
    EXPECT_EQ(entry->peak, 900u);
    ledger.credit(id, 900);
    EXPECT_EQ(entry->used, 0u);
    EXPECT_EQ(entry->peak, 900u) << "peak is a high-water mark";

    // The unmetered account always admits and is never tracked.
    EXPECT_TRUE(ledger.charge(alloc::kUnmeteredQuota, 1ull << 40));
    EXPECT_EQ(ledger.entry(alloc::kUnmeteredQuota), nullptr);
    EXPECT_EQ(ledger.entry(id + 99), nullptr);
    EXPECT_EQ(ledger.totalUsed(), 0u);
}

TEST(QuotaLedger, UncheckedChargeBypassesAdmission)
{
    // The allocator charges un-splittable slop unchecked so the
    // eventual credit (sized by the real chunk) balances; the ledger
    // must allow it to push used past the limit.
    QuotaLedger ledger;
    const QuotaId id = ledger.create(100);
    EXPECT_TRUE(ledger.charge(id, 90));
    ledger.chargeUnchecked(id, 20);
    const QuotaLedger::Entry *entry = ledger.entry(id);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->used, 110u);
    EXPECT_EQ(entry->denials, 0u);
    ledger.credit(id, 110);
    EXPECT_EQ(entry->used, 0u);
}

TEST(QuotaLedger, ResultNamesAreDiagnosable)
{
    // Failure modes are logged by name (CallResult::faultName style);
    // every code must map to a distinct, non-empty string.
    const AllocResult codes[] = {
        AllocResult::Ok,           AllocResult::SizeTooLarge,
        AllocResult::QuotaExceeded, AllocResult::OutOfMemory,
        AllocResult::Throttled,    AllocResult::InvalidCapability,
    };
    for (const AllocResult a : codes) {
        ASSERT_NE(allocResultName(a), nullptr);
        EXPECT_GT(std::strlen(allocResultName(a)), 0u);
        for (const AllocResult b : codes) {
            if (a != b) {
                EXPECT_STRNE(allocResultName(a), allocResultName(b));
            }
        }
    }
}

/** A booted kernel + heap for the allocator-level quota tests. */
struct HeapRig
{
    explicit HeapRig(alloc::TemporalMode mode =
                         alloc::TemporalMode::SoftwareRevocation,
                     fault::FaultInjector *injector = nullptr,
                     uint64_t quarantineThreshold = 0)
    {
        sim::MachineConfig config;
        config.core = sim::CoreConfig::ibex();
        config.sramSize = 96u << 10;
        config.heapOffset = 32u << 10;
        config.heapSize = 64u << 10;
        config.injector = injector;
        machine = std::make_unique<sim::Machine>(config);
        kernel = std::make_unique<rtos::Kernel>(*machine);
        kernel->initHeap(mode, quarantineThreshold);
    }

    HeapAllocator &allocator() { return kernel->allocator(); }

    /** Sweep until @p id's quarantined charges drain (bounded). */
    void settle(QuotaId id)
    {
        for (int n = 0; n < 6; ++n) {
            const QuotaLedger::Entry *entry =
                allocator().quota().entry(id);
            if (entry == nullptr || entry->used == 0) {
                return;
            }
            allocator().synchronise();
        }
    }

    std::unique_ptr<sim::Machine> machine;
    std::unique_ptr<rtos::Kernel> kernel;
};

TEST(QuotaAllocator, QuotaExceededIsTypedAndRecoverable)
{
    HeapRig rig;
    HeapAllocator &allocator = rig.allocator();
    const QuotaId q = allocator.quota().create(256);

    AllocResult res = AllocResult::Ok;
    const Capability first = allocator.mallocCharged(q, 200, &res);
    ASSERT_TRUE(first.tag());
    EXPECT_EQ(res, AllocResult::Ok);
    const QuotaLedger::Entry *entry = allocator.quota().entry(q);
    ASSERT_NE(entry, nullptr);
    EXPECT_GE(entry->used, 200u) << "footprint charged at admission";

    // Over the limit with nothing in quarantine: a fast, typed
    // denial — untagged return, no abort, counters advanced.
    const Capability second = allocator.mallocCharged(q, 200, &res);
    EXPECT_FALSE(second.tag());
    EXPECT_EQ(res, AllocResult::QuotaExceeded);
    EXPECT_GE(allocator.quotaDenials.value(), 1u);
    EXPECT_GE(allocator.failedMallocs.value(), 1u);
    // The ledger counts charge *attempts*: the admission retry after
    // the (empty) quarantine drain books a second denial.
    EXPECT_GE(entry->denials, 1u);

    // Recoverable: free the first block and the same request
    // succeeds — even though the freed bytes sit in quarantine still
    // charged, the quota admission path waits for revocation to
    // credit them back rather than denying.
    ASSERT_EQ(allocator.free(first), HeapAllocator::FreeResult::Ok);
    EXPECT_GE(entry->used, 200u)
        << "quarantined bytes must stay charged to their owner";
    const Capability third = allocator.mallocCharged(q, 200, &res);
    ASSERT_TRUE(third.tag());
    EXPECT_EQ(res, AllocResult::Ok);
    EXPECT_GE(allocator.blockedMallocs.value(), 1u)
        << "the charge had to ride the backpressure loop";
    EXPECT_EQ(allocator.backoffTimeouts.value(), 0u);
}

TEST(QuotaAllocator, QuarantinedBytesStayChargedUntilRevoked)
{
    HeapRig rig;
    HeapAllocator &allocator = rig.allocator();
    const QuotaId q = allocator.quota().create(4096);

    const Capability ptr = allocator.mallocCharged(q, 300, nullptr);
    ASSERT_TRUE(ptr.tag());
    const QuotaLedger::Entry *entry = allocator.quota().entry(q);
    ASSERT_NE(entry, nullptr);
    const uint64_t charged = entry->used;
    EXPECT_GE(charged, 300u);

    ASSERT_EQ(allocator.free(ptr), HeapAllocator::FreeResult::Ok);
    EXPECT_GT(allocator.quarantinedBytes(), 0u);
    EXPECT_EQ(entry->used, charged)
        << "free() must not credit while the chunk is quarantined";

    rig.settle(q);
    EXPECT_EQ(entry->used, 0u)
        << "leaving quarantine settles the charge";
    EXPECT_EQ(allocator.quarantinedBytes(), 0u);
}

TEST(QuotaAllocator, HeapExhaustionReturnsRecoverableOutOfMemory)
{
    HeapRig rig;
    HeapAllocator &allocator = rig.allocator();

    // Fill the heap with *live* unmetered blocks: with an empty
    // quarantine there is nothing for backpressure to reclaim, so
    // exhaustion must surface quickly as OutOfMemory.
    std::vector<Capability> blocks;
    for (;;) {
        const Capability ptr = allocator.malloc(1024);
        if (!ptr.tag()) {
            break;
        }
        blocks.push_back(ptr);
    }
    ASSERT_GT(blocks.size(), 16u);
    const uint64_t oomBefore = allocator.oomReturns.value();

    const QuotaId q = allocator.quota().create(1u << 20);
    AllocResult res = AllocResult::Ok;
    const Capability denied = allocator.mallocCharged(q, 1024, &res);
    EXPECT_FALSE(denied.tag());
    EXPECT_EQ(res, AllocResult::OutOfMemory);
    EXPECT_GT(allocator.oomReturns.value(), oomBefore);
    const QuotaLedger::Entry *entry = allocator.quota().entry(q);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->used, 0u)
        << "a failed allocation must not leak its quota charge";

    // Recoverable: release memory and the identical request succeeds
    // (the retry rides the revocation backoff through quarantine).
    ASSERT_EQ(allocator.free(blocks[0]), HeapAllocator::FreeResult::Ok);
    ASSERT_EQ(allocator.free(blocks[1]), HeapAllocator::FreeResult::Ok);
    const Capability retried = allocator.mallocCharged(q, 1024, &res);
    ASSERT_TRUE(retried.tag());
    EXPECT_EQ(res, AllocResult::Ok);
    EXPECT_EQ(allocator.backoffTimeouts.value(), 0u);
}

TEST(QuotaKernel, MintedCapabilityMetersMallocs)
{
    HeapRig rig;
    rtos::Kernel &kernel = *rig.kernel;
    rtos::Compartment &app = kernel.createCompartment("app", 1024, 512);
    rtos::Thread &thread = kernel.createThread("app", 1, 4096);
    kernel.activate(thread);

    const Capability token = kernel.mintAllocatorCapability(app, 8192);
    ASSERT_TRUE(token.tag());
    EXPECT_TRUE(token.isSealed())
        << "allocator capabilities are opaque sealed tokens";

    AllocResult res = AllocResult::InvalidCapability;
    const Capability buf = kernel.mallocWith(thread, token, 128, &res);
    ASSERT_TRUE(buf.tag());
    EXPECT_EQ(res, AllocResult::Ok);
    kernel.guest().storeWord(buf, buf.base(), 0x7e57da7a);
    EXPECT_EQ(kernel.guest().loadWord(buf, buf.base()), 0x7e57da7au);

    // The mint created ledger entry 1; the charge landed on it.
    const QuotaLedger::Entry *entry =
        kernel.allocator().quota().entry(1);
    ASSERT_NE(entry, nullptr);
    EXPECT_GE(entry->used, 128u);
    EXPECT_EQ(entry->limit, 8192u);

    // Over-limit request through the sealed path: typed denial.
    const Capability big = kernel.mallocWith(thread, token, 16384, &res);
    EXPECT_FALSE(big.tag());
    EXPECT_EQ(res, AllocResult::QuotaExceeded);

    // A non-token capability (or none at all) cannot allocate.
    const Capability forged = kernel.mallocWith(thread, buf, 64, &res);
    EXPECT_FALSE(forged.tag());
    EXPECT_EQ(res, AllocResult::InvalidCapability);
    const Capability none =
        kernel.mallocWith(thread, Capability(), 64, &res);
    EXPECT_FALSE(none.tag());
    EXPECT_EQ(res, AllocResult::InvalidCapability);
}

TEST(QuotaBackpressure, InjectedMallocStallIsBoundedAndRecoverable)
{
    // The fault-injection site for "revoker stalls exactly as a
    // blocking malloc enters its backoff loop". The injected stall
    // never expires on its own, so the allocation below can only
    // succeed through a recovery kick — the backoff loop's own sweep
    // request when the engine is idle, or the escalation path's
    // timeout kick when a sweep is wedged in flight. The malloc must
    // neither abort nor burn its budget into a spurious OutOfMemory.
    fault::FaultInjector injector(0x5707);
    HeapRig rig(alloc::TemporalMode::HardwareRevocation, &injector,
                1ull << 30);
    HeapAllocator &allocator = rig.allocator();

    // Pressure: exhaust the heap, then free everything into
    // quarantine (the huge threshold keeps sweeps from running until
    // the blocked malloc asks for one).
    std::vector<Capability> blocks;
    for (;;) {
        const Capability ptr = allocator.malloc(1024);
        if (!ptr.tag()) {
            break;
        }
        blocks.push_back(ptr);
    }
    ASSERT_GT(blocks.size(), 16u);
    for (const Capability &ptr : blocks) {
        ASSERT_EQ(allocator.free(ptr), HeapAllocator::FreeResult::Ok);
    }

    fault::FaultPlan plan;
    plan.site = fault::FaultSite::MallocStall;
    plan.param = 1u << 30; // Never self-expires: needs the kick.
    injector.arm(plan);

    const Capability ptr = allocator.malloc(1024);
    ASSERT_TRUE(ptr.tag())
        << "blocking malloc must recover from the injected stall";
    EXPECT_TRUE(injector.fired());
    EXPECT_GE(injector.mallocStalls.value(), 1u);
    EXPECT_GE(allocator.blockedMallocs.value(), 1u);
    EXPECT_GE(injector.kicksObserved.value(), 1u)
        << "the never-expiring stall can only clear via a kick";
    EXPECT_EQ(allocator.backoffTimeouts.value(), 0u)
        << "a curable stall must not exhaust the backoff budget";
    EXPECT_EQ(injector.safetyViolations.value(), 0u);
}

TEST(QuotaBackpressure, InjectedMallocStallEndsAtItsOwnDeadline)
{
    // A stall that expires before anything kicks the engine: the
    // blocked malloc finds a sweep already in flight, so the backoff
    // loop's own sweep request does not kick; after four stale
    // backoffs (256-2048 cycles) the escalation waits for the sweep,
    // and its timeout kick would come only after 64 polls of 512
    // cycles. The 8192-cycle stall ends first, on its deadline alone
    // (FaultInjector::tick's backstop, which runs only if that
    // deadline is one of the injector's events), and the sweep then
    // completes unkicked.
    fault::FaultInjector injector(0x5707);
    HeapRig rig(alloc::TemporalMode::HardwareRevocation, &injector,
                1ull << 30);
    HeapAllocator &allocator = rig.allocator();
    std::vector<Capability> blocks;
    for (;;) {
        const Capability ptr = allocator.malloc(1024);
        if (!ptr.tag()) {
            break;
        }
        blocks.push_back(ptr);
    }
    ASSERT_GT(blocks.size(), 16u);
    for (const Capability &ptr : blocks) {
        ASSERT_EQ(allocator.free(ptr), HeapAllocator::FreeResult::Ok);
    }
    rtos::HardwareRevokerHandle *revoker = rig.kernel->hardwareRevoker();
    ASSERT_NE(revoker, nullptr);
    revoker->requestSweep();
    ASSERT_TRUE(revoker->sweepInProgress());

    fault::FaultPlan plan;
    plan.site = fault::FaultSite::MallocStall;
    plan.param = 8192;
    injector.arm(plan);

    const Capability ptr = allocator.malloc(1024);
    ASSERT_TRUE(ptr.tag()) << "the stall ends and the sweep completes";
    EXPECT_EQ(injector.mallocStalls.value(), 1u);
    EXPECT_EQ(allocator.blockedMallocs.value(), 1u);
    EXPECT_EQ(injector.kicksObserved.value(), 0u)
        << "the stall must end at its deadline, not through a kick";
    EXPECT_EQ(revoker->timeoutKicks.value(), 0u)
        << "the escalation's waiter must not have needed its kick";
    EXPECT_EQ(allocator.backoffTimeouts.value(), 0u);
}

} // namespace
} // namespace cheriot
