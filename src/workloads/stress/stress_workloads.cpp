#include "workloads/stress/stress_workloads.h"

#include "rtos/heap_pressure.h"
#include "rtos/kernel.h"
#include "util/bits.h"
#include "util/log.h"

#include <deque>
#include <vector>

namespace cheriot::workloads
{

using alloc::AllocResult;
using cap::Capability;

const char *
stressScenarioName(StressScenario scenario)
{
    switch (scenario) {
    case StressScenario::MallocStorm:
        return "malloc-storm";
    case StressScenario::QuarantineFlood:
        return "quarantine-flood";
    case StressScenario::Fragmentation:
        return "fragmentation";
    case StressScenario::NoisyNeighbor:
        return "noisy-neighbor";
    }
    return "unknown";
}

namespace
{

/** Deterministic per-run stream (same splitmix64 as the injector). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ull) {}

    uint64_t next()
    {
        state_ += 0x9e3779b97f4a7c15ull;
        return splitMix64(state_);
    }

    uint32_t below(uint32_t bound)
    {
        return bound == 0 ? 0 : static_cast<uint32_t>(next() % bound);
    }

  private:
    uint64_t state_;
};

/** Static region for compartment images, stacks and kernel
 * bookkeeping. */
constexpr uint32_t kStaticSize = 64u << 10;
/** Quotas: victim + attacker stay well under the heap so victim
 * allocations are always satisfiable once revocation catches up. */
constexpr uint64_t kVictimQuota = 16u << 10;
constexpr uint64_t kAttackerQuota = 48u << 10;
/** Scheduler periods (cycles). */
constexpr uint64_t kVictimPeriod = 2048;
constexpr uint64_t kAttackerPeriod = 512;
/** Cool-down phase length (cycles). */
constexpr uint64_t kCooldownCycles = 120000;

/** Ring of stale-capability stash slots in the attacker's globals:
 * freed capabilities are parked in guest memory so re-loading them
 * exercises the real load filter, then probed for dereferencability. */
constexpr uint32_t kStashSlots = 16;

} // namespace

StressResult
runStressScenario(const StressConfig &config)
{
    StressResult result;
    result.scenario = config.scenario;
    result.mode = config.mode;

    sim::MachineConfig machineConfig;
    machineConfig.core = config.core;
    machineConfig.sramSize = config.heapSize + kStaticSize;
    machineConfig.heapOffset = kStaticSize;
    machineConfig.heapSize = config.heapSize;

    sim::Machine machine(machineConfig);
    rtos::Kernel kernel(machine);
    kernel.initHeap(config.mode, config.quarantineThreshold);

    rtos::Compartment &victim = kernel.createCompartment("victim", 1024, 512);
    rtos::Compartment &attacker =
        kernel.createCompartment("attacker", 1024, 512);
    rtos::Thread &victimThread = kernel.createThread("victim", 2, 512);
    rtos::Thread &attackerThread = kernel.createThread("attacker", 1, 512);

    std::string bootError;
    if (!kernel.finalizeBoot(&bootError)) {
        fatal("stress: boot verification failed: %s", bootError.c_str());
    }

    const Capability victimCap =
        kernel.mintAllocatorCapability(victim, kVictimQuota);
    const Capability attackerCap =
        kernel.mintAllocatorCapability(attacker, kAttackerQuota);

    // Admission control: elastic attacker work is deferred while
    // revocation is visibly behind, judged purely through the
    // heap-pressure MMIO window (no allocator internals).
    const Capability pressure = kernel.heapPressureCap();
    kernel.scheduler().setAdmissionGate(
        [&kernel, pressure,
         &config](const rtos::Scheduler::Task &task) {
            if (task.name != "attacker") {
                return false;
            }
            const uint32_t quarantined = kernel.guest().loadWord(
                pressure,
                pressure.base() +
                    rtos::HeapPressureDevice::kRegQuarantinedBytes);
            const uint32_t age = kernel.guest().loadWord(
                pressure,
                pressure.base() +
                    rtos::HeapPressureDevice::kRegOldestEpochAge);
            return quarantined > config.heapSize / 16 || age >= 4;
        });

    // Pre-attack baseline: mint records and token boxes are live
    // kernel state, so measure after minting.
    result.baselineFreeBytes = kernel.allocator().freeBytes();

    Rng rng(config.seed);
    bool attackActive = true;
    std::deque<Capability> victimLive;
    std::vector<Capability> attackerLive;
    const Capability attackerGlobals = attacker.globalsCap();
    std::vector<bool> stashUsed(kStashSlots, false);
    uint32_t stashNext = 0;

    // Park a freed capability in attacker globals for later probing.
    auto stash = [&](const Capability &stale) {
        const uint32_t slot = stashNext++ % kStashSlots;
        if (kernel.guest().tryStoreCap(
                attackerGlobals,
                attackerGlobals.base() + slot * cap::kCapabilitySize,
                stale) == sim::TrapCause::None) {
            stashUsed[slot] = true;
        }
    };

    // Reload every stashed capability through the load filter and try
    // to dereference it. Everything probed here was freed and has
    // left (or is leaving) quarantine-tracking: a successful store
    // through it is a temporal-safety violation.
    auto probeStashes = [&]() {
        for (uint32_t slot = 0; slot < kStashSlots; ++slot) {
            if (!stashUsed[slot]) {
                continue;
            }
            Capability stale;
            if (kernel.guest().tryLoadCap(
                    attackerGlobals,
                    attackerGlobals.base() +
                        slot * cap::kCapabilitySize,
                    &stale) != sim::TrapCause::None) {
                continue;
            }
            result.uafProbes++;
            if (stale.tag() &&
                kernel.guest().tryStoreWord(stale, stale.base(),
                                            0xdeadbeef) ==
                    sim::TrapCause::None) {
                result.uafHits++;
            }
            stashUsed[slot] = false;
        }
    };

    // --- Victim: small steady in-quota allocations, each one
    // dereference-checked, oldest freed beyond a bounded working set.
    kernel.scheduler().addPeriodic(
        "victim", kVictimPeriod, 2, [&]() {
            kernel.activate(victimThread);
            result.victimAttempts++;
            AllocResult res = AllocResult::Ok;
            const Capability ptr =
                kernel.mallocWith(victimThread, victimCap, 64, &res);
            if (!ptr.tag()) {
                result.victimFailures++;
                warn("stress: victim allocation failed (%s)",
                     alloc::allocResultName(res));
                return;
            }
            result.victimSuccesses++;
            const uint32_t probe = 0x600d0000u + rng.below(0xffff);
            if (kernel.guest().tryStoreWord(ptr, ptr.base(), probe) !=
                    sim::TrapCause::None ||
                kernel.guest().loadWord(ptr, ptr.base()) != probe) {
                result.victimDerefFailures++;
            }
            victimLive.push_back(ptr);
            if (victimLive.size() > 8) {
                (void)kernel.free(victimThread, victimLive.front());
                victimLive.pop_front();
            }
        });

    // --- Attacker: scenario-specific abuse.
    auto attackerMalloc = [&](uint32_t size) {
        result.attackerAttempts++;
        AllocResult res = AllocResult::Ok;
        const Capability ptr =
            kernel.mallocWith(attackerThread, attackerCap, size, &res);
        if (ptr.tag()) {
            result.attackerSuccesses++;
            return ptr;
        }
        switch (res) {
        case AllocResult::QuotaExceeded:
            result.attackerQuotaDenials++;
            break;
        case AllocResult::OutOfMemory:
            result.attackerOoms++;
            break;
        case AllocResult::Throttled:
            result.attackerThrottled++;
            break;
        default:
            break;
        }
        return Capability();
    };

    kernel.scheduler().addPeriodic(
        "attacker", kAttackerPeriod, 1, [&]() {
            if (!attackActive) {
                return;
            }
            kernel.activate(attackerThread);
            switch (config.scenario) {
            case StressScenario::MallocStorm:
                // Grab-and-hold far beyond the quota, never freeing.
                for (int i = 0; i < 8; ++i) {
                    const Capability ptr = attackerMalloc(4096);
                    if (ptr.tag()) {
                        attackerLive.push_back(ptr);
                    }
                }
                break;
            case StressScenario::QuarantineFlood:
                // Free instantly so everything lands in quarantine,
                // and keep probing the freed capabilities.
                for (int i = 0; i < 16; ++i) {
                    const Capability ptr = attackerMalloc(256);
                    if (ptr.tag()) {
                        (void)kernel.free(attackerThread, ptr);
                        stash(ptr);
                    }
                }
                probeStashes();
                break;
            case StressScenario::Fragmentation:
                // Fill the quota with small blocks, then free every
                // other one: worst-case free-list fragmentation.
                for (int i = 0; i < 16; ++i) {
                    const Capability ptr = attackerMalloc(64);
                    if (ptr.tag()) {
                        attackerLive.push_back(ptr);
                    }
                }
                for (size_t i = attackerLive.size(); i >= 2; i -= 2) {
                    Capability &ptr = attackerLive[i - 2];
                    if (ptr.tag()) {
                        (void)kernel.free(attackerThread, ptr);
                        stash(ptr);
                        ptr = Capability();
                    }
                }
                break;
            case StressScenario::NoisyNeighbor:
                // In-quota churn at maximum rate: pure revocation
                // pressure, nothing the allocator can refuse.
                for (int i = 0; i < 8; ++i) {
                    const Capability ptr =
                        attackerMalloc(512 + rng.below(512));
                    if (ptr.tag()) {
                        (void)kernel.free(attackerThread, ptr);
                    }
                }
                break;
            }
        });

    // Phase 1: the attack.
    const uint64_t start = machine.cycles();
    kernel.scheduler().runFor(config.attackCycles);

    // Phase 2: attack over; the victim keeps running while the
    // system digests the backlog.
    attackActive = false;
    kernel.scheduler().runFor(kCooldownCycles);

    // Tear down the working sets and let revocation settle, then
    // check the heap came all the way back.
    for (Capability &ptr : attackerLive) {
        if (ptr.tag()) {
            (void)kernel.free(attackerThread, ptr);
            stash(ptr);
        }
    }
    for (const Capability &ptr : victimLive) {
        (void)kernel.free(victimThread, ptr);
    }
    for (int i = 0; i < 8 && kernel.allocator().quarantinedBytes() > 0;
         ++i) {
        kernel.allocator().synchronise();
    }
    probeStashes();

    result.cycles = machine.cycles() - start;
    result.attackerQuarantines =
        kernel.watchdog().overloadQuarantines.value();
    result.admissionDeferrals =
        kernel.scheduler().admissionDeferrals.value();
    result.finalFreeBytes = kernel.allocator().freeBytes();
    result.finalQuarantinedBytes = kernel.allocator().quarantinedBytes();
    result.blockedMallocs = kernel.allocator().blockedMallocs.value();
    result.backoffTimeouts = kernel.allocator().backoffTimeouts.value();
    result.oomReturns = kernel.allocator().oomReturns.value();
    result.completed = true;
    return result;
}

} // namespace cheriot::workloads
