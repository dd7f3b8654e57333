#include "sim/csr.h"

namespace cheriot::sim
{

const char *
trapCauseName(TrapCause cause)
{
    switch (cause) {
      case TrapCause::None: return "none";
      case TrapCause::InstrAccessFault: return "instruction access fault";
      case TrapCause::IllegalInstruction: return "illegal instruction";
      case TrapCause::Breakpoint: return "breakpoint";
      case TrapCause::LoadAccessFault: return "load access fault";
      case TrapCause::StoreAccessFault: return "store access fault";
      case TrapCause::EcallM: return "ecall";
      case TrapCause::CheriTagViolation: return "CHERI tag violation";
      case TrapCause::CheriSealViolation: return "CHERI seal violation";
      case TrapCause::CheriPermViolation: return "CHERI permission violation";
      case TrapCause::CheriBoundsViolation: return "CHERI bounds violation";
      case TrapCause::CheriStoreLocalViolation:
        return "CHERI store-local violation";
      case TrapCause::MisalignedAccess: return "misaligned access";
      case TrapCause::CompartmentQuarantined:
        return "compartment quarantined";
      case TrapCause::TimerInterrupt: return "timer interrupt";
      case TrapCause::RevokerInterrupt: return "revoker interrupt";
    }
    return "unknown";
}

bool
CsrFile::read(uint16_t csr, uint64_t cycle, uint32_t *value) const
{
    switch (csr) {
      case isa::kCsrMstatus:
        *value = (mie ? 1u << 3 : 0) | (mpie ? 1u << 7 : 0);
        return true;
      case isa::kCsrMcause:
        *value = mcause;
        return true;
      case isa::kCsrMtval:
        *value = mtval;
        return true;
      case isa::kCsrMshwm:
        *value = mshwm;
        return true;
      case isa::kCsrMshwmb:
        *value = mshwmb;
        return true;
      case isa::kCsrMcycle:
        *value = static_cast<uint32_t>(cycle);
        return true;
      case isa::kCsrMcycleH:
        *value = static_cast<uint32_t>(cycle >> 32);
        return true;
      default:
        return false;
    }
}

bool
CsrFile::write(uint16_t csr, uint32_t value)
{
    switch (csr) {
      case isa::kCsrMstatus:
        mie = (value & (1u << 3)) != 0;
        mpie = (value & (1u << 7)) != 0;
        return true;
      case isa::kCsrMcause:
        mcause = value;
        return true;
      case isa::kCsrMtval:
        mtval = value;
        return true;
      case isa::kCsrMshwm:
        mshwm = value & ~3u;
        return true;
      case isa::kCsrMshwmb:
        mshwmb = value & ~3u;
        return true;
      case isa::kCsrMcycle:
      case isa::kCsrMcycleH:
        return false; // Read-only in this model.
      default:
        return false;
    }
}

bool
CsrFile::requiresSystemRegs(uint16_t csr)
{
    // The cycle counters are readable by any code; everything else is
    // reserved for SR holders (the switcher and early boot).
    return csr != isa::kCsrMcycle && csr != isa::kCsrMcycleH;
}

cap::Capability *
CsrFile::scr(isa::Scr which)
{
    switch (which) {
      case isa::Scr::Mtcc: return &mtcc;
      case isa::Scr::Mtdc: return &mtdc;
      case isa::Scr::MScratchC: return &mscratchc;
      case isa::Scr::Mepcc: return &mepcc;
    }
    return nullptr;
}

} // namespace cheriot::sim
