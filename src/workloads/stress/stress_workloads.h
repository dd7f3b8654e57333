/**
 * @file
 * Adversarial resource-exhaustion workloads (the overload campaign).
 *
 * Each scenario pairs a well-behaved *victim* compartment with an
 * *attacker* compartment on the same shared heap, both holding sealed
 * allocator capabilities with per-compartment quotas. The attacker
 * tries to starve the victim through a different channel per
 * scenario; the harness checks the robustness invariants the quota /
 * backpressure / watchdog machinery is supposed to guarantee:
 *
 *  - victim intact: every in-quota victim allocation succeeds during
 *    the attack, and every fresh allocation is dereferenceable;
 *  - attacker contained: the attacker is throttled by quota denials,
 *    watchdog quarantine, or scheduler admission deferrals — never by
 *    taking the system down;
 *  - temporally safe: no stale (freed) capability ever dereferences
 *    reallocatable memory, even under quarantine flooding;
 *  - heap recovered: once the attack stops and revocation catches up,
 *    free heap returns exactly to its pre-attack baseline;
 *  - never aborts: exhaustion surfaces as recoverable OutOfMemory
 *    after bounded backoff (the scenario completing at all asserts
 *    this — every failure path is a typed result, not a panic).
 */

#ifndef CHERIOT_WORKLOADS_STRESS_STRESS_WORKLOADS_H
#define CHERIOT_WORKLOADS_STRESS_STRESS_WORKLOADS_H

#include "alloc/heap_allocator.h"
#include "sim/core_config.h"

#include <cstdint>

namespace cheriot::workloads
{

enum class StressScenario : uint8_t
{
    /** Allocate-without-freeing storm far beyond the quota. */
    MallocStorm,
    /** malloc+free churn that floods quarantine and stashes the
     * freed capabilities for use-after-free probes. */
    QuarantineFlood,
    /** Fill the quota with small pinned blocks, then free every
     * other one: maximal free-list fragmentation. */
    Fragmentation,
    /** In-quota high-rate churn: no rule broken, just revocation
     * pressure — contained by scheduler admission control. */
    NoisyNeighbor,
};

constexpr uint32_t kStressScenarioCount = 4;

const char *stressScenarioName(StressScenario scenario);

struct StressConfig
{
    StressScenario scenario = StressScenario::MallocStorm;
    sim::CoreConfig core = sim::CoreConfig::ibex();
    alloc::TemporalMode mode = alloc::TemporalMode::HardwareRevocation;
    /** Quarantined bytes before a sweep (0 = allocator default). */
    uint64_t quarantineThreshold = 0;
    uint32_t heapSize = 128u << 10;
    /** Attack phase length (cycles). */
    uint64_t attackCycles = 400000;
    uint64_t seed = 1;
};

struct StressResult
{
    StressScenario scenario = StressScenario::MallocStorm;
    alloc::TemporalMode mode = alloc::TemporalMode::HardwareRevocation;
    uint64_t cycles = 0;

    /** @name Victim health @{ */
    uint64_t victimAttempts = 0;
    uint64_t victimSuccesses = 0;
    uint64_t victimFailures = 0;      ///< In-quota allocations refused.
    uint64_t victimDerefFailures = 0; ///< Fresh allocation not usable.
    /** @} */

    /** @name Attacker containment @{ */
    uint64_t attackerAttempts = 0;
    uint64_t attackerSuccesses = 0;
    uint64_t attackerQuotaDenials = 0;
    uint64_t attackerOoms = 0;
    uint64_t attackerThrottled = 0;    ///< Rejected while quarantined.
    uint64_t attackerQuarantines = 0;  ///< Watchdog overload actions.
    uint64_t admissionDeferrals = 0;   ///< Scheduler gate actions.
    /** @} */

    /** @name Temporal safety @{ */
    uint64_t uafProbes = 0; ///< Stale capabilities re-loaded + probed.
    uint64_t uafHits = 0;   ///< Probes that dereferenced (violations).
    /** @} */

    /** @name Heap recovery @{ */
    uint64_t baselineFreeBytes = 0;
    uint64_t finalFreeBytes = 0;
    uint64_t finalQuarantinedBytes = 0;
    /** @} */

    /** @name Backpressure machinery engagement @{ */
    uint64_t blockedMallocs = 0;
    uint64_t backoffTimeouts = 0;
    uint64_t oomReturns = 0;
    /** @} */

    bool completed = false; ///< The run finished (nothing aborted).

    /** @name The campaign invariants @{ */
    bool victimIntact() const
    {
        return completed && victimAttempts > 0 && victimFailures == 0 &&
               victimDerefFailures == 0;
    }
    bool attackerContained() const
    {
        if (!completed || attackerAttempts == 0) {
            return false;
        }
        // Any of the three containment channels counts: quota denial
        // (with watchdog throttling as the repeat-offender escalation),
        // scheduler admission deferral, or blocking-malloc
        // backpressure slowing the attacker to the revocation rate.
        return attackerQuotaDenials > 0 || attackerThrottled > 0 ||
               admissionDeferrals > 0 || blockedMallocs > 0;
    }
    bool temporallySafe() const { return completed && uafHits == 0; }
    bool heapRecovered() const
    {
        return completed && finalQuarantinedBytes == 0 &&
               finalFreeBytes == baselineFreeBytes;
    }
    bool ok() const
    {
        return victimIntact() && attackerContained() &&
               temporallySafe() && heapRecovered() &&
               backoffTimeouts == 0;
    }
    /** @} */
};

/** Run one adversarial scenario end to end. */
StressResult runStressScenario(const StressConfig &config);

} // namespace cheriot::workloads

#endif // CHERIOT_WORKLOADS_STRESS_STRESS_WORKLOADS_H
