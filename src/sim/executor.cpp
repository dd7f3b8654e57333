/**
 * @file
 * The guest run loop: straight-line blocks of instructions, each
 * executed inline with its semantics and per-instruction timing for
 * the CHERIoT core models. execute() is forced inline into
 * runBlocks(), so the loop is one function with one switch.
 */

#include "sim/machine.h"

#include "isa/semantics.h"
#include "util/bits.h"
#include "util/log.h"

#include <algorithm>

namespace cheriot::sim
{

using cap::Capability;
using isa::Inst;
using isa::Op;

[[gnu::always_inline]] inline void
Machine::execute(const Inst &inst, uint32_t pc, bool cheri, bool plainPcc)
{
    const CoreConfig &cc = config_.core;

    // Load-to-use stall: a consumer immediately in a load's shadow.
    if (pendingLoadReg_ != isa::kNumRegs) {
        const isa::OpSummary &reads = isa::summaryOf(inst.op);
        if (pendingLoadReg_ != 0 &&
            ((reads.readsRs1 && inst.rs1 == pendingLoadReg_) ||
             (reads.readsRs2 && inst.rs2 == pendingLoadReg_))) {
            advance(cc.loadToUsePenalty, 0);
        }
        pendingLoadReg_ = isa::kNumRegs;
    }

    const uint32_t nextPc = pc + 4;
    const Capability &rs1 = readReg(inst.rs1);
    const Capability &rs2 = readReg(inst.rs2);
    // Results are written here in place. rd may be rs1 or rs2, so each
    // case reads its operands before it writes rd.
    Capability &rd = destReg(inst.rd);
    const uint32_t v1 = rs1.address();
    const uint32_t v2 = rs2.address();

    // Common tails, all forced inline: called out of line, each would
    // cost a call and a closure per instruction. ------------------------
    auto movePcc = [&]() __attribute__((always_inline)) {
        if (plainPcc) {
            pcc_.setAddressInWindow(nextPc);
        } else {
            pcc_.setAddress(nextPc);
        }
    };
    auto fallthrough = [&](unsigned cycleCount)
        __attribute__((always_inline)) {
        movePcc();
        advance(cycleCount, 0);
    };
    auto intResult = [&](uint32_t value) __attribute__((always_inline)) {
        rd = Capability::fromInteger(value);
        fallthrough(1);
    };
    auto capResult = [&](const Capability &value)
        __attribute__((always_inline)) {
        rd = value;
        fallthrough(1);
    };
    // A register-to-register op: each case passes its own constant op,
    // so the inlined isa::evaluate folds to that op's code.
    auto evaluated = [&](Op op, unsigned cycleCount = 1)
        __attribute__((always_inline)) {
        isa::evaluate(rd, op, inst.imm, rs1, rs2);
        fallthrough(cycleCount);
    };
    auto trap = [&](TrapCause cause, uint32_t tval)
        __attribute__((always_inline)) { raiseTrap(cause, tval); };
    // A checked access's tail: trap at the access address, or fall
    // through (the access charged its own cycles).
    auto accessed = [&](TrapCause cause, uint32_t addr)
        __attribute__((always_inline)) {
        if (cause != TrapCause::None) {
            trap(cause, addr);
            return false;
        }
        movePcc();
        return true;
    };

    switch (inst.op) {
      case Op::Illegal:
        // Keep the typed diagnosis so the trap can say precisely which
        // field was reserved or malformed.
        isa::decode(memory_.sram().peek32(pc), &lastDecodeError_);
        trap(TrapCause::IllegalInstruction, 0);
        return;

      case Op::Lui: evaluated(Op::Lui); return;

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
                rd = pcc_.withAddress(nextPc).sealedWith(
                    cap::returnSentryFor(csrs_.mie));
            } else {
                rd = Capability::fromInteger(nextPc);
            }
        }
        pcc_.setAddress(pc + inst.imm);
        advance(1 + cc.jumpPenalty, 0);
        return;
      }

      case Op::Jalr: {
        if (!cheri) {
            rd = Capability::fromInteger(nextPc);
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
            // rs1 is already copied into target.
            rd = pcc_.withAddress(nextPc).sealedWith(
                cap::returnSentryFor(csrs_.mie));
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
            rd = Capability::fromInteger(value);
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
        if (accessed(loadCap(rs1, addr, &rd), addr)) {
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

      case Op::Addi: evaluated(Op::Addi); return;
      case Op::Slti: evaluated(Op::Slti); return;
      case Op::Sltiu: evaluated(Op::Sltiu); return;
      case Op::Xori: evaluated(Op::Xori); return;
      case Op::Ori: evaluated(Op::Ori); return;
      case Op::Andi: evaluated(Op::Andi); return;
      case Op::Slli: evaluated(Op::Slli); return;
      case Op::Srli: evaluated(Op::Srli); return;
      case Op::Srai: evaluated(Op::Srai); return;
      case Op::Add: evaluated(Op::Add); return;
      case Op::Sub: evaluated(Op::Sub); return;
      case Op::Sll: evaluated(Op::Sll); return;
      case Op::Slt: evaluated(Op::Slt); return;
      case Op::Sltu: evaluated(Op::Sltu); return;
      case Op::Xor: evaluated(Op::Xor); return;
      case Op::Srl: evaluated(Op::Srl); return;
      case Op::Sra: evaluated(Op::Sra); return;
      case Op::Or: evaluated(Op::Or); return;
      case Op::And: evaluated(Op::And); return;

      case Op::Mul: evaluated(Op::Mul, cc.mulCycles); return;
      case Op::Mulh: evaluated(Op::Mulh, cc.mulCycles); return;
      case Op::Mulhsu: evaluated(Op::Mulhsu, cc.mulCycles); return;
      case Op::Mulhu: evaluated(Op::Mulhu, cc.mulCycles); return;
      case Op::Div: evaluated(Op::Div, cc.divCycles); return;
      case Op::Divu: evaluated(Op::Divu, cc.divCycles); return;
      case Op::Rem: evaluated(Op::Rem, cc.divCycles); return;
      case Op::Remu: evaluated(Op::Remu, cc.divCycles); return;

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
      case Op::CGetPerm: evaluated(Op::CGetPerm); return;
      case Op::CGetType: evaluated(Op::CGetType); return;
      case Op::CGetBase: evaluated(Op::CGetBase); return;
      case Op::CGetLen: evaluated(Op::CGetLen); return;
      case Op::CGetTop: evaluated(Op::CGetTop); return;
      case Op::CGetTag: evaluated(Op::CGetTag); return;
      case Op::CGetAddr: evaluated(Op::CGetAddr); return;

      case Op::CSeal: evaluated(Op::CSeal); return;
      case Op::CUnseal: evaluated(Op::CUnseal); return;
      case Op::CAndPerm: evaluated(Op::CAndPerm); return;
      case Op::CSetAddr: evaluated(Op::CSetAddr); return;
      case Op::CIncAddr: evaluated(Op::CIncAddr); return;
      case Op::CIncAddrImm: evaluated(Op::CIncAddrImm); return;
      case Op::CSetBounds: evaluated(Op::CSetBounds); return;
      case Op::CSetBoundsExact: evaluated(Op::CSetBoundsExact); return;
      case Op::CSetBoundsImm: evaluated(Op::CSetBoundsImm); return;
      case Op::CTestSubset: evaluated(Op::CTestSubset); return;
      case Op::CSetEqualExact: evaluated(Op::CSetEqualExact); return;
      case Op::CMove: evaluated(Op::CMove); return;
      case Op::CClearTag: evaluated(Op::CClearTag); return;
      case Op::CRrl: evaluated(Op::CRrl); return;
      case Op::CRam: evaluated(Op::CRam); return;
      case Op::CSealEntry: evaluated(Op::CSealEntry); return;
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

void
Machine::runBlocks(uint64_t budget)
{
    if (decodePages_.empty()) {
        // Sized by the first run: a machine that runs no guest code
        // holds no decode cache at all.
        decodePages_.resize((config_.sramSize + kPageWords * 4 - 1) /
                            (kPageWords * 4));
    }
    // Fixed for the call: read once, not per instruction.
    const bool cheri = config_.core.cheriEnabled;
    const bool traced = static_cast<bool>(traceHook_);
    while (!halted()) {
        endBlock_ = false;
        if (injector_ != nullptr) {
            // Spurious traps / trap storms hit the core between
            // instructions, exactly like a glitched interrupt line.
            // They arrive at injector events, which end a block.
            uint32_t cause = 0;
            if (injector_->takeSpuriousFault(&cause)) {
                raiseTrap(static_cast<TrapCause>(cause), pcc_.address());
                return;
            }
        }
        if (csrs_.mie && takePendingInterrupt()) {
            return;
        }

        const uint32_t pc = pcc_.address();
        // PCC is tagged, unsealed and covers the fetch. The clamp to
        // its top below then puts every fall-through address in
        // [base, top], and top - base < representableSpan(E) for every
        // bounds encoding: setAddress would only store the address, so
        // inside the block PCC moves by a plain store.
        const bool plainPcc =
            pcc_.tag() && !pcc_.isSealed() && pcc_.inBounds(pc, 4);
        // Instruction fetch checks: PCC must be a valid, unsealed (the
        // sentry unsealing happened at the jump), executable capability
        // covering the fetch.
        if (cheri &&
            (!plainPcc || !pcc_.perms().has(cap::PermExecute))) {
            raiseTrap(TrapCause::InstrAccessFault, pc);
            return;
        }
        if (!memory_.isSram(pc, 4) || pc % 4 != 0) {
            raiseTrap(TrapCause::InstrAccessFault, pc);
            return;
        }

        // A cached length means the first word is decoded too;
        // otherwise decode it if need be and form the block.
        const uint32_t word = (pc - mem::kSramBase) / 4;
        const DecodePage *page = decodePages_[word / kPageWords].get();
        uint64_t length =
            page != nullptr ? page->blockLength[word % kPageWords] : 0;
        if (length == 0) {
            length = formBlock(word);
            page = decodePages_[word / kPageWords].get();
        }
        const isa::Inst *inst = &page->insts[word % kPageWords];
        // Every word of the block has been fetched before, so SRAM
        // covers it; the budget and PCC's bounds may end it sooner (in
        // baseline RV32E, where PCC is not checked, only while PCC
        // moves by a plain store).
        length = std::min(length, budget);
        if (plainPcc) {
            length = std::min(length, (pcc_.top() - pc) / 4);
        }
        if (runControl_ != nullptr || console_.exitRequested() ||
            (csrs_.mie && (timer_.armed() || bgRevoker_.sweeping()))) {
            length = 1;
        }

        const isa::Inst *const first = inst;
        const isa::Inst *const last = inst + length;
        uint32_t at = pc;
        do {
            if (traced) {
                traceHook_(at, *inst);
            }
            execute(*inst, at, cheri, plainPcc);
            ++inst;
            at += 4;
        } while (inst != last && !endBlock_);
        // Retired once per block: only runLoop and runCoreMark read
        // the count, and both read it between calls.
        const uint64_t retired = static_cast<uint64_t>(inst - first);
        instructions_ += retired;
        budget -= retired;

        if (halt_ == HaltReason::Running && console_.exitRequested()) {
            halt_ = HaltReason::ConsoleExit;
        }
        if (endBlock_ || budget == 0) {
            return;
        }
    }
}

} // namespace cheriot::sim
