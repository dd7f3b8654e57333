/**
 * @file
 * Charged, capability-checked memory access for RTOS-modelled code.
 *
 * The RTOS primitives (allocator, switcher, scheduler) are modelled
 * as host C++ that operates on the simulated machine exclusively
 * through this context: every access is authorised by a real
 * capability, passes through the load filter, snoops the background
 * revoker, and is charged cycles by the active core's timing model —
 * so the protection and performance behaviour match code compiled for
 * the guest ISA.
 *
 * Violations that occur while the RTOS manipulates *its own* state
 * are model bugs and panic; checks of caller-supplied capabilities
 * use the fallible variants and surface the fault.
 */

#ifndef CHERIOT_RTOS_GUEST_CONTEXT_H
#define CHERIOT_RTOS_GUEST_CONTEXT_H

#include "cap/capability.h"
#include "sim/machine.h"

namespace cheriot::rtos
{

class GuestContext
{
  public:
    explicit GuestContext(sim::Machine &machine) : machine_(machine) {}

    sim::Machine &machine() { return machine_; }

    /** @name Infallible accessors (panic on violation) @{ */
    uint32_t loadWord(const cap::Capability &auth, uint32_t addr);
    void storeWord(const cap::Capability &auth, uint32_t addr,
                   uint32_t value);
    cap::Capability loadCap(const cap::Capability &auth, uint32_t addr);
    void storeCap(const cap::Capability &auth, uint32_t addr,
                  const cap::Capability &value);
    void zero(const cap::Capability &auth, uint32_t addr, uint32_t bytes);
    /** @} */

    /** @name Fallible accessors @{ */
    sim::TrapCause tryLoadWord(const cap::Capability &auth, uint32_t addr,
                               uint32_t *out)
    {
        return machine_.loadData(auth, addr, 4, false, out);
    }
    sim::TrapCause tryStoreWord(const cap::Capability &auth, uint32_t addr,
                                uint32_t value)
    {
        return machine_.storeData(auth, addr, 4, value);
    }
    sim::TrapCause tryLoadCap(const cap::Capability &auth, uint32_t addr,
                              cap::Capability *out)
    {
        return machine_.loadCap(auth, addr, out);
    }
    sim::TrapCause tryStoreCap(const cap::Capability &auth, uint32_t addr,
                               const cap::Capability &value)
    {
        return machine_.storeCap(auth, addr, value);
    }
    /** @} */

    /** Charge @p instructions cycles of register-register work. */
    void chargeExecution(uint32_t instructions)
    {
        machine_.advance(instructions, 0);
    }

  private:
    sim::Machine &machine_;
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_GUEST_CONTEXT_H
