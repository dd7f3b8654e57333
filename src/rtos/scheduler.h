/**
 * @file
 * Preemptive multitasking model (paper §2.2, §2.6).
 *
 * The scheduler is a partially-trusted compartment that owns thread
 * state. This model is event-driven: threads contribute *activations*
 * (periodic or one-shot closures); the run loop dispatches the
 * highest-priority due activation, accounts its busy cycles on the
 * shared machine clock, and idles between activations — during which
 * the background revoker owns the memory port, exactly as on silicon.
 *
 * Context switches charge the real save/restore cost: fifteen
 * capability registers plus, when the stack high-water-mark CSRs are
 * enabled, the two extra mshwm/mshwmb registers whose cost Table 4
 * makes visible on revoker-bound workloads.
 */

#ifndef CHERIOT_RTOS_SCHEDULER_H
#define CHERIOT_RTOS_SCHEDULER_H

#include "rtos/guest_context.h"
#include "rtos/object_cap.h"
#include "rtos/thread.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

#include <functional>
#include <string>
#include <vector>

namespace cheriot::rtos
{

class Scheduler
{
  public:
    /** Register save/restore cost per context switch. @{ */
    static constexpr uint32_t kSavedCapRegs = 15;
    static constexpr uint32_t kSwitchInstructions = 40;
    static constexpr uint32_t kHwmCsrOps = 4; ///< save+restore × 2 CSRs.
    /** @} */

    explicit Scheduler(GuestContext &guest,
                       cap::Capability contextSaveArea)
        : guest_(guest), saveArea_(contextSaveArea)
    {
        stats_.registerCounter("contextSwitches", contextSwitches);
        stats_.registerCounter("idleCycles", idleCycleCount);
        stats_.registerCounter("busyCycles", busyCycleCount);
        stats_.registerCounter("admissionDeferrals", admissionDeferrals);
        stats_.registerCounter("timeCapDeferrals", timeCapDeferrals);
    }

    /**
     * Charge one full context switch (save the outgoing thread's
     * register file, restore the incoming one's).
     */
    void contextSwitch();

    /**
     * Block the current thread until @p done() holds, context
     * switching to the idle thread and re-checking every
     * @p pollCycles. Used e.g. while the hardware revoker sweeps.
     */
    void blockUntil(const std::function<bool()> &done,
                    uint64_t pollCycles = 512);

    /** Account @p cycles of pure idle (port free for the revoker). */
    void runIdle(uint64_t cycles);

    /** @name Periodic activations (IoT application model) @{ */
    struct Task
    {
        std::string name;
        uint64_t periodCycles;
        uint64_t nextDue;
        uint8_t priority;
        std::function<void()> fn;
        /** Time object capability gating dispatch; untagged = the
         * legacy ambient schedule (no gate). */
        cap::Capability timeCap;
    };

    void addPeriodic(std::string name, uint64_t periodCycles,
                     uint8_t priority, std::function<void()> fn);

    /**
     * Admission control under heap pressure: when set, the gate is
     * consulted before each dispatch and a true verdict defers the
     * activation by one period (charged to admissionDeferrals, not
     * run). Gates typically read the heap-pressure MMIO window and
     * defer elastic low-priority work while revocation is behind;
     * deferral can never wedge the loop — time still advances and
     * the gate is re-asked at the next due date.
     */
    void setAdmissionGate(std::function<bool(const Task &)> gate)
    {
        admissionGate_ = std::move(gate);
    }

    /** @name Time object capabilities (revocable schedule slices)
     * With a TimeAuthority wired, a task bound to a Time capability
     * runs only while the capability is live and covers the current
     * slot (machine cycle / slotCycles). A revoked or out-of-slice
     * capability defers the activation exactly like the admission
     * gate: typed accounting, one period slide, never a trap — so
     * revocation mid-slice preempts at the next scheduling point. @{ */
    void setTimeAuthority(TimeAuthority *authority)
    {
        timeAuthority_ = authority;
    }
    /** Bind @p token to the task named @p name; false if unknown. */
    bool bindTimeCap(const std::string &name,
                     const cap::Capability &token);
    void setSlotCycles(uint64_t slotCycles)
    {
        slotCycles_ = slotCycles == 0 ? 1 : slotCycles;
    }
    uint64_t slotCycles() const { return slotCycles_; }
    /** The slot the scheduler is in at machine cycle @p cycle. */
    uint64_t slotAt(uint64_t cycle) const { return cycle / slotCycles_; }
    /** @} */

    /** As addPeriodic, but the first activation is due @p firstDelay
     * cycles from now (0 = immediately; e.g. one-shot setup work). */
    void addPeriodicWithDelay(std::string name, uint64_t periodCycles,
                              uint64_t firstDelay, uint8_t priority,
                              std::function<void()> fn);

    /**
     * Run the event loop for @p horizon machine cycles. Returns the
     * fraction of cycles spent busy (non-idle).
     */
    double runFor(uint64_t horizon);
    /** @} */

    uint64_t idleCycles() const { return idleCycleCount.value(); }
    uint64_t busyCycles() const { return busyCycleCount.value(); }

    /** @name Snapshot state
     * Task closures are boot-time constants (recreated by the same
     * deterministic boot); only each task's next-due deadline and the
     * accounting counters are dynamic. Deserialization requires the
     * same task list (count, names and periods) to be registered. @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.expectU32(self.tasks_.size());
        for (auto &task : self.tasks_) {
            a.expectStr(task.name);
            // A period mismatch means the resuming process registered
            // a *different* schedule (e.g. a horizon-dependent one-shot
            // period): its restored absolute deadline would silently
            // fire at the wrong time. Refuse up front instead.
            a.expectU64(task.periodCycles);
            a.u64(task.nextDue);
        }
        a.counter(self.contextSwitches);
        a.counter(self.idleCycleCount);
        a.counter(self.busyCycleCount);
        a.counter(self.admissionDeferrals);
        a.counter(self.timeCapDeferrals);
        a.u64(self.slotCycles_);
        if constexpr (Archive::kLoading) {
            if (self.slotCycles_ == 0) {
                a.fail();
            }
        }
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

    Counter contextSwitches;
    Counter idleCycleCount;
    Counter busyCycleCount;
    Counter admissionDeferrals;
    Counter timeCapDeferrals; ///< Dispatches refused by a Time cap.

    StatGroup &stats() { return stats_; }

  private:
    GuestContext &guest_;
    cap::Capability saveArea_;
    std::vector<Task> tasks_;
    std::function<bool(const Task &)> admissionGate_;
    TimeAuthority *timeAuthority_ = nullptr;
    /** Schedule-slot width for Time-capability checks. */
    uint64_t slotCycles_ = 4096;
    StatGroup stats_{"scheduler"};
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_SCHEDULER_H
