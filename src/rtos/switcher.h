/**
 * @file
 * The compartment switcher (paper §2.6, §5.2, §5.2.1).
 *
 * The switcher is the most trusted RTOS component: a few hundred
 * hand-written instructions that implement cross-compartment call and
 * return. On a call it saves the caller's register state to the
 * thread's trusted stack, chops the remaining stack for the callee
 * (narrowing the bounds of the stack capability), zeroes the portion
 * handed over, installs the callee's globals capability and interrupt
 * posture, and transfers control. On return it zeroes exactly the
 * stack the callee used, restores the caller, and clears residual
 * registers.
 *
 * With the stack high-water-mark CSRs enabled the zeroing is limited
 * to [mshwm, sp) instead of [stack base, sp), which Table 4 shows is
 * worth ~10% on allocation-heavy small-object workloads.
 */

#ifndef CHERIOT_RTOS_SWITCHER_H
#define CHERIOT_RTOS_SWITCHER_H

#include "rtos/compartment.h"
#include "rtos/guest_context.h"
#include "rtos/thread.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

#include <map>
#include <string>

namespace cheriot::debug
{
class SimStats;
} // namespace cheriot::debug

namespace cheriot::rtos
{

class Kernel;

class Switcher
{
  public:
    /** Instruction budgets for the hand-written entry/exit paths.
     * The full set of RTOS primitives is "a little over 300
     * hand-written instructions" (§2.6); the call/return pair
     * accounts for the bulk of them. @{ */
    static constexpr uint32_t kCallInstructions = 120;
    static constexpr uint32_t kReturnInstructions = 90;
    /** Switcher path that locates and enters an error handler. */
    static constexpr uint32_t kHandlerInstructions = 60;
    /** Caller registers spilled to / reloaded from the trusted stack. */
    static constexpr uint32_t kSavedCaps = 8;
    /** @} */

    explicit Switcher(GuestContext &guest) : guest_(guest)
    {
        stats_.registerCounter("calls", calls);
        stats_.registerCounter("faults", calleeFaults);
        stats_.registerCounter("bytesZeroed", bytesZeroed);
        stats_.registerCounter("handlerInvocations", handlerInvocations);
        stats_.registerCounter("forcedUnwindFrames", forcedUnwindFrames);
        stats_.registerCounter("rejectedCalls", rejectedCalls);
        stats_.registerCounter("compartmentSwitches", compartmentSwitches);
    }

    /**
     * Perform a cross-compartment call on @p thread into @p import,
     * passing @p args. @p trustedStackCap authorises the thread's
     * trusted-stack save area (kernel-owned; no compartment holds it).
     */
    CallResult call(Kernel &kernel, Thread &thread, const Import &import,
                    ArgVec &args, const cap::Capability &trustedStackCap);

    /** @name Snapshot state @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.counter(self.calls);
        a.counter(self.calleeFaults);
        a.counter(self.bytesZeroed);
        a.counter(self.handlerInvocations);
        a.counter(self.forcedUnwindFrames);
        a.counter(self.rejectedCalls);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

    Counter calls;
    Counter calleeFaults;
    Counter bytesZeroed;
    Counter handlerInvocations; ///< Error handlers entered.
    Counter forcedUnwindFrames; ///< Frames unwound past forcibly.
    Counter rejectedCalls;      ///< Fast-failed (unwind/quarantine).
    /** Compartment transitions observed (call entry + return each
     * count one). Diagnostic only — not serialized. */
    Counter compartmentSwitches;

    StatGroup &stats() { return stats_; }

    /**
     * Register the switcher's stat group and its dynamic
     * per-compartment cycle counters ("compartment.<name>.cycles")
     * with the machine-wide SimStats registry. Cycle attribution is
     * sampled at compartment switch: all cycles elapsed since the
     * previous switch are charged to the compartment that held the
     * core. Diagnostic only — none of this state is serialized.
     */
    void attachSimStats(debug::SimStats &stats);

    /** Name of the compartment currently holding the core ("kernel"
     * outside any cross-compartment call). For the debug stub's
     * qCheriot.compartment query. */
    const std::string &currentCompartment() const
    {
        return currentCompartment_;
    }

    /** Cycles attributed so far to @p name (0 if never scheduled). */
    uint64_t cyclesAttributedTo(const std::string &name) const;

  private:
    /** Charge cycles since the last switch to the outgoing
     * compartment and make @p name the attribution target. */
    void switchTo(const std::string &name);
    Counter &cyclesFor(const std::string &name);
    /** Zero the dirty part of the unused stack; returns bytes zeroed. */
    uint32_t zeroStack(Thread &thread, uint32_t sp);

    /**
     * Recovery path for a faulting callee (paper §5.2): charge the
     * fault to the watchdog, run the compartment's error handler if
     * it has one (and is allowed one), otherwise begin a forced
     * unwind back to the original caller.
     */
    CallResult handleCalleeFault(Kernel &kernel, Thread &thread,
                                 const Import &import,
                                 CompartmentContext &context,
                                 const CallResult &faultResult);

    GuestContext &guest_;
    StatGroup stats_{"switcher"};
    /** Per-compartment cycle attribution (std::map for stable Counter
     * addresses — SimStats holds pointers into it). */
    std::map<std::string, Counter> compartmentCycles_;
    std::string currentCompartment_{"kernel"};
    uint64_t attributionMark_ = 0;
    debug::SimStats *simStats_ = nullptr;
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_SWITCHER_H
