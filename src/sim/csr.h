/**
 * @file
 * Control and status registers, including the CHERIoT special
 * capability registers (SCRs) and the stack high-water-mark pair
 * (paper §5.2.1).
 *
 * Access to most CSRs/SCRs requires the SR permission on PCC. The
 * stack high-water mark (mshwm) and stack base (mshwmb) are likewise
 * SR-protected — only the compartment switcher may touch them — but
 * the *hardware* updates mshwm on every store: a store whose address
 * falls inside [mshwmb, mshwm) lowers mshwm to that address, so
 * mshwm always tracks the lowest stack address the current thread
 * has written (stacks grow downwards).
 */

#ifndef CHERIOT_SIM_CSR_H
#define CHERIOT_SIM_CSR_H

#include "cap/capability.h"
#include "isa/encoding.h"
#include "snapshot/serializer.h"

#include <cstdint>

namespace cheriot::sim
{

/** Trap and interrupt causes (mcause values). */
enum class TrapCause : uint32_t
{
    None = 0,
    InstrAccessFault = 1,
    IllegalInstruction = 2,
    Breakpoint = 3,
    LoadAccessFault = 5,
    StoreAccessFault = 7,
    EcallM = 11,
    // CHERI-specific causes (values chosen in the reserved range).
    CheriTagViolation = 28,
    CheriSealViolation = 29,
    CheriPermViolation = 30,
    CheriBoundsViolation = 31,
    CheriStoreLocalViolation = 32,
    MisalignedAccess = 33,
    /** Synthesised by the switcher (not a hardware mcause): the call
     * target compartment is quarantined by the kernel watchdog. */
    CompartmentQuarantined = 34,
    // Interrupts (bit 31 set in mcause).
    TimerInterrupt = 0x80000007,
    RevokerInterrupt = 0x8000000b,
};

const char *trapCauseName(TrapCause cause);

/** True for interrupt causes. */
constexpr bool
isInterrupt(TrapCause cause)
{
    return (static_cast<uint32_t>(cause) & 0x80000000u) != 0;
}

class CsrFile
{
  public:
    /** @name Machine status @{ */
    bool mie = false;  ///< Global interrupt enable.
    bool mpie = false; ///< Previous MIE, stacked on trap entry.
    uint32_t mcause = 0;
    uint32_t mtval = 0;
    /** @} */

    /** @name Stack high-water mark (§5.2.1) @{ */
    uint32_t mshwm = 0;  ///< Lowest stack address stored to.
    uint32_t mshwmb = 0; ///< Stack base (lower limit).
    /** @} */

    /** @name Special capability registers @{ */
    cap::Capability mtcc;      ///< Trap vector.
    cap::Capability mtdc;      ///< Trap data.
    cap::Capability mscratchc; ///< Scratch.
    cap::Capability mepcc;     ///< Exception PC.
    /** @} */

    /**
     * Hardware-side high-water-mark update on a store to @p addr.
     * Returns true if the mark moved.
     */
    bool noteStore(uint32_t addr)
    {
        if (addr >= mshwmb && addr < mshwm) {
            mshwm = addr & ~3u; // Word-granular mark.
            return true;
        }
        return false;
    }

    /**
     * Read a numeric CSR. @p cycle supplies mcycle. Returns false for
     * unknown CSR numbers.
     */
    bool read(uint16_t csr, uint64_t cycle, uint32_t *value) const;

    /** Write a numeric CSR. Returns false for unknown/read-only. */
    bool write(uint16_t csr, uint32_t value);

    /** Does access to @p csr require the SR permission? */
    static bool requiresSystemRegs(uint16_t csr);

    /** @name Snapshot state @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.b(self.mie);
        a.b(self.mpie);
        a.u32(self.mcause);
        a.u32(self.mtval);
        a.u32(self.mshwm);
        a.u32(self.mshwmb);
        a.cap(self.mtcc);
        a.cap(self.mtdc);
        a.cap(self.mscratchc);
        a.cap(self.mepcc);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

    cap::Capability *scr(isa::Scr which);
};

} // namespace cheriot::sim

#endif // CHERIOT_SIM_CSR_H
