/**
 * @file
 * Kernel watchdog: per-compartment fault budgets with
 * quarantine-and-restart (graceful degradation, paper §5).
 *
 * Error handlers and forced unwinds keep a single fault from taking
 * the system down, but a compartment that faults *persistently* —
 * corrupted state, a hot attack, broken hardware behind its driver —
 * would still burn the CPU in a crash loop. The watchdog closes that
 * hole: every callee fault is charged to the faulting compartment,
 * and when its faults-since-restart figure exhausts the budget the
 * compartment is quarantined. Calls into a quarantined compartment
 * fail fast with CompartmentQuarantined (no handler, no unwind
 * machinery, almost no cycles), so the rest of the system keeps its
 * schedule. After the restart delay the watchdog zeroes the
 * compartment's globals — a fresh boot image, since compartments
 * keep all mutable state in globals or on (switcher-zeroed) stacks —
 * and re-admits it with a full budget.
 */

#ifndef CHERIOT_RTOS_WATCHDOG_H
#define CHERIOT_RTOS_WATCHDOG_H

#include "alloc/alloc_result.h"
#include "rtos/compartment.h"
#include "rtos/guest_context.h"
#include "rtos/object_cap.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

namespace cheriot::rtos
{

class Watchdog
{
  public:
    struct Policy
    {
        /** Faults since the last restart before quarantine kicks in.
         * Generous by default: well-behaved systems that merely use
         * error returns as control flow must never trip it. */
        uint32_t faultBudget = 64;
        /** Quarantine duration before the compartment is restarted. */
        uint64_t restartDelayCycles = 4096;
        /** Quota-exceeded / heap-exhausted outcomes since the last
         * restart before the compartment is treated as a resource
         * abuser and quarantined. Generous: a well-behaved caller
         * that occasionally sees OutOfMemory and sheds load never
         * trips it; a malloc storm does within one burst. */
        uint32_t allocFailureBudget = 32;
    };

    /** Modelled instruction cost of the restart path (zeroing is
     * charged separately, at bus rate, by the zero itself). */
    static constexpr uint32_t kRestartInstructions = 150;

    explicit Watchdog(GuestContext &guest) : guest_(guest)
    {
        stats_.registerCounter("faultsObserved", faultsObserved);
        stats_.registerCounter("quarantines", quarantines);
        stats_.registerCounter("restarts", restarts);
        stats_.registerCounter("rejectedCalls", rejectedCalls);
        stats_.registerCounter("allocFailuresObserved",
                               allocFailuresObserved);
        stats_.registerCounter("overloadQuarantines",
                               overloadQuarantines);
        stats_.registerCounter("monitorActionsGranted",
                               monitorActionsGranted);
        stats_.registerCounter("monitorActionsRefused",
                               monitorActionsRefused);
    }

    const Policy &policy() const { return policy_; }
    void setPolicy(const Policy &policy) { policy_ = policy; }

    /**
     * Charge a callee fault to @p compartment. Returns true when this
     * fault exhausted the budget and the compartment is now
     * quarantined (the switcher then skips its error handler).
     */
    bool recordFault(Compartment &compartment, sim::TrapCause cause,
                     uint64_t nowCycle);

    /**
     * Charge a failed (quota-exceeded or out-of-memory) allocation
     * to @p compartment. Returns true when this failure exhausted
     * the alloc-failure budget and the compartment is now
     * quarantined — the overload analogue of recordFault.
     */
    bool recordAllocFailure(Compartment &compartment,
                            alloc::AllocResult result,
                            uint64_t nowCycle);

    /**
     * Call gate: true if a call into @p compartment must be rejected.
     * Performs a due restart as a side effect — quarantine release is
     * lazy, paid for by the first caller after the delay.
     */
    bool shouldReject(Compartment &compartment, uint64_t nowCycle);

    /** Budget remaining before quarantine (0 when quarantined). */
    uint32_t budgetRemaining(const Compartment &compartment) const;

    /** Zero globals and re-admit (also available to tests). */
    void restart(Compartment &compartment);

    /** @name Monitor object capabilities
     * With a MonitorAuthority wired, *requested* quarantines and
     * restarts — the supervisory actions a compartment may take over
     * another — are gated on a live Monitor capability naming the
     * target. Refusals are typed (InvalidCap / Revoked /
     * PermViolation), so revoking the Monitor mid-recovery degrades
     * the supervisor's authority without faulting anyone; the
     * internal budget-driven paths above stay ambient kernel
     * machinery. Without an authority wired, every request is
     * refused InvalidCap — monitor actions are opt-in. @{ */
    void setMonitorAuthority(MonitorAuthority *authority)
    {
        monitorAuthority_ = authority;
    }
    /** Quarantine @p target (index @p targetIndex) until the policy's
     * restart delay elapses, on the authority of @p monitorCap. */
    CapResult requestQuarantine(const cap::Capability &monitorCap,
                                Compartment &target,
                                uint32_t targetIndex,
                                uint64_t nowCycle);
    /** Restart @p target immediately on the authority of
     * @p monitorCap. */
    CapResult requestRestart(const cap::Capability &monitorCap,
                             Compartment &target, uint32_t targetIndex);
    /** @} */

    /** @name Snapshot state (policy + counters; per-compartment fault
     * state is serialized with each Compartment) @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.u32(self.policy_.faultBudget);
        a.u64(self.policy_.restartDelayCycles);
        a.u32(self.policy_.allocFailureBudget);
        a.counter(self.faultsObserved);
        a.counter(self.quarantines);
        a.counter(self.restarts);
        a.counter(self.rejectedCalls);
        a.counter(self.allocFailuresObserved);
        a.counter(self.overloadQuarantines);
        a.counter(self.monitorActionsGranted);
        a.counter(self.monitorActionsRefused);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

    Counter faultsObserved;
    Counter quarantines;
    Counter restarts;
    Counter rejectedCalls;
    Counter allocFailuresObserved; ///< Failed allocations charged.
    Counter overloadQuarantines;   ///< Quarantines for heap abuse.
    Counter monitorActionsGranted; ///< Monitor-capability actions run.
    Counter monitorActionsRefused; ///< Typed monitor refusals.

    StatGroup &stats() { return stats_; }

  private:
    GuestContext &guest_;
    Policy policy_;
    MonitorAuthority *monitorAuthority_ = nullptr;
    StatGroup stats_{"watchdog"};
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_WATCHDOG_H
