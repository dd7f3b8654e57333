/**
 * @file
 * Instruction semantics and per-instruction timing for the CHERIoT
 * core models.
 */

#include "sim/machine.h"

#include "isa/semantics.h"
#include "util/bits.h"
#include "util/log.h"

namespace cheriot::sim
{

using cap::Capability;
using isa::Inst;
using isa::Op;

void
Machine::execute(const Inst &inst, uint32_t pc)
{
    const CoreConfig &cc = config_.core;
    const bool cheri = cc.cheriEnabled;

    // Load-to-use stall: a consumer immediately in a load's shadow.
    if (pendingLoadReg_ != isa::kNumRegs && pendingLoadReg_ != 0) {
        const isa::OpSummary &reads = isa::summaryOf(inst.op);
        if ((reads.readsRs1 && inst.rs1 == pendingLoadReg_) ||
            (reads.readsRs2 && inst.rs2 == pendingLoadReg_)) {
            advance(cc.loadToUsePenalty, 0);
        }
    }
    pendingLoadReg_ = isa::kNumRegs;

    const uint32_t nextPc = pc + 4;
    const Capability &rs1 = readReg(inst.rs1);
    const Capability &rs2 = readReg(inst.rs2);
    const uint32_t v1 = rs1.address();
    const uint32_t v2 = rs2.address();

    // Common tails -----------------------------------------------------
    auto fallthrough = [&](unsigned cycleCount) {
        pcc_.setAddress(nextPc);
        advance(cycleCount, 0);
    };
    auto intResult = [&](uint32_t value) {
        writeRegInt(inst.rd, value);
        fallthrough(1);
    };
    auto capResult = [&](const Capability &value) {
        writeReg(inst.rd, value);
        fallthrough(1);
    };
    auto trap = [&](TrapCause cause, uint32_t tval) {
        raiseTrap(cause, tval);
    };
    // A checked access's tail: trap at the access address, or fall
    // through (the access charged its own cycles).
    auto accessed = [&](TrapCause cause, uint32_t addr) {
        if (cause != TrapCause::None) {
            trap(cause, addr);
            return false;
        }
        pcc_.setAddress(nextPc);
        return true;
    };

    switch (inst.op) {
      case Op::Illegal:
        trap(TrapCause::IllegalInstruction, 0);
        return;

      case Op::Lui:
        intResult(static_cast<uint32_t>(inst.imm));
        return;

      case Op::Auipc:
        // AUIPCC: derive a PCC-relative capability (plain integer in
        // baseline mode).
        if (cheri) {
            capResult(pcc_.withAddress(pc + inst.imm));
        } else {
            intResult(pc + inst.imm);
        }
        return;

      case Op::Jal: {
        if (inst.rd != 0) {
            if (cheri) {
                // Link is sealed as a return sentry capturing the
                // current interrupt posture (§3.1.2).
                Capability link = pcc_.withAddress(nextPc);
                link = link.sealedWith(cap::returnSentryFor(csrs_.mie));
                writeReg(inst.rd, link);
            } else {
                writeRegInt(inst.rd, nextPc);
            }
        }
        pcc_.setAddress(pc + inst.imm);
        advance(1 + cc.jumpPenalty, 0);
        return;
      }

      case Op::Jalr: {
        if (!cheri) {
            if (inst.rd != 0) {
                writeRegInt(inst.rd, nextPc);
            }
            pcc_.setAddress((v1 + inst.imm) & ~1u);
            advance(1 + cc.jumpPenalty, 0);
            return;
        }
        Capability target = rs1;
        if (!target.tag()) {
            trap(TrapCause::CheriTagViolation, inst.rs1);
            return;
        }
        bool setPosture = false;
        bool newPosture = csrs_.mie;
        if (target.isSealed()) {
            if (target.isForwardSentry()) {
                if (inst.imm != 0) {
                    trap(TrapCause::CheriSealViolation, inst.rs1);
                    return;
                }
                const auto posture = cap::sentryPosture(target.otype());
                if (posture != cap::InterruptPosture::Inherit) {
                    setPosture = true;
                    newPosture =
                        posture == cap::InterruptPosture::Enabled;
                }
                target = target.unsealedCopy();
            } else if (target.isReturnSentry()) {
                if (inst.imm != 0) {
                    trap(TrapCause::CheriSealViolation, inst.rs1);
                    return;
                }
                setPosture = true;
                newPosture =
                    cap::returnSentryEnablesInterrupts(target.otype());
                target = target.unsealedCopy();
            } else {
                trap(TrapCause::CheriSealViolation, inst.rs1);
                return;
            }
        }
        if (!target.perms().has(cap::PermExecute)) {
            trap(TrapCause::CheriPermViolation, inst.rs1);
            return;
        }
        if (inst.rd != 0) {
            Capability link = pcc_.withAddress(nextPc);
            link = link.sealedWith(cap::returnSentryFor(csrs_.mie));
            writeReg(inst.rd, link);
        }
        if (setPosture) {
            csrs_.mie = newPosture;
        }
        pcc_ = target.withAddress((target.address() + inst.imm) & ~1u);
        advance(1 + cc.jumpPenalty, 0);
        return;
      }

      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
      case Op::Bltu: case Op::Bgeu: {
        const bool taken = isa::branchTaken(inst.op, v1, v2);
        pcc_.setAddress(taken ? pc + inst.imm : nextPc);
        advance(taken ? 1 + cc.takenBranchPenalty : 1, 0);
        return;
      }

      case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu: case Op::Lhu: {
        const unsigned bytes =
            (inst.op == Op::Lb || inst.op == Op::Lbu) ? 1
            : (inst.op == Op::Lh || inst.op == Op::Lhu) ? 2 : 4;
        const bool sign = inst.op == Op::Lb || inst.op == Op::Lh;
        const uint32_t addr = v1 + inst.imm;
        uint32_t value = 0;
        // rs1 is the authority; baseline RV32E (checkAccess) ignores it.
        if (accessed(loadData(rs1, addr, bytes, sign, &value), addr)) {
            writeRegInt(inst.rd, value);
            pendingLoadReg_ = inst.rd;
        }
        return;
      }

      case Op::Sb: case Op::Sh: case Op::Sw: {
        const unsigned bytes = inst.op == Op::Sb ? 1
                               : inst.op == Op::Sh ? 2 : 4;
        const uint32_t addr = v1 + inst.imm;
        accessed(storeData(rs1, addr, bytes, v2), addr);
        return;
      }

      case Op::Clc: {
        if (!cheri) {
            trap(TrapCause::IllegalInstruction, 0);
            return;
        }
        const uint32_t addr = v1 + inst.imm;
        Capability value;
        if (accessed(loadCap(rs1, addr, &value), addr)) {
            writeReg(inst.rd, value);
            pendingLoadReg_ = inst.rd;
        }
        return;
      }

      case Op::Csc: {
        if (!cheri) {
            trap(TrapCause::IllegalInstruction, 0);
            return;
        }
        const uint32_t addr = v1 + inst.imm;
        accessed(storeCap(rs1, addr, rs2), addr);
        return;
      }

      case Op::Addi: intResult(v1 + inst.imm); return;
      case Op::Slti: intResult(isa::slt(v1, inst.imm)); return;
      case Op::Sltiu: intResult(isa::sltu(v1, inst.imm)); return;
      case Op::Xori: intResult(v1 ^ inst.imm); return;
      case Op::Ori: intResult(v1 | inst.imm); return;
      case Op::Andi: intResult(v1 & inst.imm); return;
      case Op::Slli: intResult(isa::sll(v1, inst.imm)); return;
      case Op::Srli: intResult(isa::srl(v1, inst.imm)); return;
      case Op::Srai: intResult(isa::sra(v1, inst.imm)); return;
      case Op::Add: intResult(v1 + v2); return;
      case Op::Sub: intResult(v1 - v2); return;
      case Op::Sll: intResult(isa::sll(v1, v2)); return;
      case Op::Slt: intResult(isa::slt(v1, v2)); return;
      case Op::Sltu: intResult(isa::sltu(v1, v2)); return;
      case Op::Xor: intResult(v1 ^ v2); return;
      case Op::Srl: intResult(isa::srl(v1, v2)); return;
      case Op::Sra: intResult(isa::sra(v1, v2)); return;
      case Op::Or: intResult(v1 | v2); return;
      case Op::And: intResult(v1 & v2); return;

      case Op::Mul:
        writeRegInt(inst.rd, v1 * v2);
        fallthrough(cc.mulCycles);
        return;
      case Op::Mulh:
        writeRegInt(inst.rd, isa::mulh(v1, v2));
        fallthrough(cc.mulCycles);
        return;
      case Op::Mulhsu:
        writeRegInt(inst.rd, isa::mulhsu(v1, v2));
        fallthrough(cc.mulCycles);
        return;
      case Op::Mulhu:
        writeRegInt(inst.rd, isa::mulhu(v1, v2));
        fallthrough(cc.mulCycles);
        return;
      case Op::Div:
        writeRegInt(inst.rd, isa::div(v1, v2));
        fallthrough(cc.divCycles);
        return;
      case Op::Divu:
        writeRegInt(inst.rd, isa::divu(v1, v2));
        fallthrough(cc.divCycles);
        return;
      case Op::Rem:
        writeRegInt(inst.rd, isa::rem(v1, v2));
        fallthrough(cc.divCycles);
        return;
      case Op::Remu:
        writeRegInt(inst.rd, isa::remu(v1, v2));
        fallthrough(cc.divCycles);
        return;

      case Op::Ecall:
        trap(TrapCause::EcallM, 0);
        return;
      case Op::Ebreak:
        halt_ = HaltReason::Breakpoint;
        return;
      case Op::Mret:
        if (cheri && !pcc_.perms().has(cap::PermSystemRegs)) {
            trap(TrapCause::CheriPermViolation, 0);
            return;
        }
        csrs_.mie = csrs_.mpie;
        pcc_ = csrs_.mepcc.unsealedCopy();
        advance(1 + cc.jumpPenalty, 0);
        return;

      case Op::Csrrw: case Op::Csrrs: case Op::Csrrc:
      case Op::Csrrwi: case Op::Csrrsi: case Op::Csrrci: {
        if (cheri && CsrFile::requiresSystemRegs(inst.csr) &&
            !pcc_.perms().has(cap::PermSystemRegs)) {
            trap(TrapCause::CheriPermViolation, inst.csr);
            return;
        }
        uint32_t old = 0;
        if (!csrs_.read(inst.csr, cycles(), &old)) {
            trap(TrapCause::IllegalInstruction, inst.csr);
            return;
        }
        const bool isImm = inst.op == Op::Csrrwi ||
                           inst.op == Op::Csrrsi || inst.op == Op::Csrrci;
        const uint32_t operand =
            isImm ? static_cast<uint32_t>(inst.imm) : v1;
        uint32_t newValue = old;
        bool doWrite = true;
        switch (inst.op) {
          case Op::Csrrw: case Op::Csrrwi:
            newValue = operand;
            break;
          case Op::Csrrs: case Op::Csrrsi:
            newValue = old | operand;
            doWrite = operand != 0;
            break;
          case Op::Csrrc: case Op::Csrrci:
            newValue = old & ~operand;
            doWrite = operand != 0;
            break;
          default: break;
        }
        if (doWrite) {
            csrs_.write(inst.csr, newValue);
        }
        intResult(old);
        return;
      }

      // --- CHERIoT capability instructions ---------------------------
      case Op::CGetPerm: intResult(rs1.perms().mask()); return;
      case Op::CGetType: intResult(rs1.typeAddress()); return;
      case Op::CGetBase: intResult(rs1.base()); return;
      case Op::CGetLen: {
        const uint64_t length = rs1.length();
        intResult(length > 0xffffffffull
                      ? 0xffffffffu
                      : static_cast<uint32_t>(length));
        return;
      }
      case Op::CGetTop: {
        const uint64_t top = rs1.top();
        intResult(top > 0xffffffffull ? 0xffffffffu
                                      : static_cast<uint32_t>(top));
        return;
      }
      case Op::CGetTag: intResult(rs1.tag() ? 1 : 0); return;
      case Op::CGetAddr: intResult(v1); return;

      case Op::CSeal: {
        const auto sealed = cap::seal(rs1, rs2);
        capResult(sealed ? *sealed : rs1.withTagCleared());
        return;
      }
      case Op::CUnseal: {
        const auto unsealed = cap::unseal(rs1, rs2);
        capResult(unsealed ? *unsealed : rs1.withTagCleared());
        return;
      }
      case Op::CAndPerm:
        capResult(rs1.withPermsAnd(static_cast<uint16_t>(v2)));
        return;
      case Op::CSetAddr: capResult(rs1.withAddress(v2)); return;
      case Op::CIncAddr: capResult(rs1.withAddressOffset(v2)); return;
      case Op::CIncAddrImm:
        capResult(rs1.withAddressOffset(inst.imm));
        return;
      case Op::CSetBounds: capResult(rs1.withBounds(v2)); return;
      case Op::CSetBoundsExact: capResult(rs1.withBoundsExact(v2)); return;
      case Op::CSetBoundsImm:
        capResult(rs1.withBounds(static_cast<uint32_t>(inst.imm)));
        return;
      case Op::CTestSubset:
        intResult(cap::isSubsetOf(rs2, rs1) ? 1 : 0);
        return;
      case Op::CSetEqualExact: intResult(rs1 == rs2 ? 1 : 0); return;
      case Op::CMove: capResult(rs1); return;
      case Op::CClearTag: capResult(rs1.withTagCleared()); return;
      case Op::CRrl:
        intResult(static_cast<uint32_t>(cap::representableLength(v1)));
        return;
      case Op::CRam: intResult(cap::representableAlignmentMask(v1)); return;
      case Op::CSealEntry: {
        const auto posture = static_cast<cap::InterruptPosture>(inst.imm);
        const auto sentry = cap::makeSentry(rs1, posture);
        capResult(sentry ? *sentry : rs1.withTagCleared());
        return;
      }
      case Op::CSpecialRw: {
        if (cheri && !pcc_.perms().has(cap::PermSystemRegs)) {
            trap(TrapCause::CheriPermViolation, inst.imm);
            return;
        }
        Capability *scr = csrs_.scr(static_cast<isa::Scr>(inst.imm));
        if (scr == nullptr) {
            trap(TrapCause::IllegalInstruction, inst.imm);
            return;
        }
        const Capability old = *scr;
        if (inst.rs1 != 0) {
            *scr = rs1;
        }
        capResult(old);
        return;
      }
    }
    panic("execute: unhandled op %s", isa::opName(inst.op));
}

} // namespace cheriot::sim
