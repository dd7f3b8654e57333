/**
 * @file
 * The architectural rules the executor and the static verifier share,
 * each stated once:
 *   - the integer operations whose results are more than a C++
 *     operator: shifts (only the low five bits of the amount count),
 *     signed comparisons, the high halves of the multiplies, division
 *     and remainder with their two corner cases (by zero, and INT_MIN
 *     by -1, which RISC-V defines rather than traps), and the six
 *     branch conditions;
 *   - evaluate(): the value every register-to-register op writes,
 *     written in place into its destination;
 *   - accessCause() and capStoreCause(): the capability checks of a
 *     checked memory access, as the trap cause they raise.
 *
 * Everything here is inline. The executor calls evaluate() from each
 * op's own switch case with that case's constant op, so the call folds
 * to the op's code and an instruction still takes one dispatch; the
 * verifier calls it with the decoded op whenever the registers the op
 * reads hold known values.
 */

#ifndef CHERIOT_ISA_SEMANTICS_H
#define CHERIOT_ISA_SEMANTICS_H

#include "cap/capability.h"
#include "isa/encoding.h"

#include <cstdint>
#include <optional>

namespace cheriot::isa
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

constexpr uint32_t kIntMin = 0x80000000u;

constexpr uint32_t
sll(uint32_t a, uint32_t b)
{
    return a << (b & 31);
}

constexpr uint32_t
srl(uint32_t a, uint32_t b)
{
    return a >> (b & 31);
}

constexpr uint32_t
sra(uint32_t a, uint32_t b)
{
    return static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
}

constexpr uint32_t
slt(uint32_t a, uint32_t b)
{
    return static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1 : 0;
}

constexpr uint32_t
sltu(uint32_t a, uint32_t b)
{
    return a < b ? 1 : 0;
}

constexpr uint32_t
mulh(uint32_t a, uint32_t b)
{
    const int64_t product = static_cast<int64_t>(static_cast<int32_t>(a)) *
                            static_cast<int32_t>(b);
    return static_cast<uint32_t>(product >> 32);
}

constexpr uint32_t
mulhsu(uint32_t a, uint32_t b)
{
    const int64_t product =
        static_cast<int64_t>(static_cast<int32_t>(a)) * int64_t{b};
    return static_cast<uint32_t>(product >> 32);
}

constexpr uint32_t
mulhu(uint32_t a, uint32_t b)
{
    return static_cast<uint32_t>((uint64_t{a} * b) >> 32);
}

/** Signed division: x / 0 is -1, INT_MIN / -1 is INT_MIN. */
constexpr uint32_t
div(uint32_t a, uint32_t b)
{
    if (b == 0) {
        return ~uint32_t{0};
    }
    if (a == kIntMin && b == ~uint32_t{0}) {
        return kIntMin;
    }
    return static_cast<uint32_t>(static_cast<int32_t>(a) /
                                 static_cast<int32_t>(b));
}

/** Unsigned division: x / 0 is all ones. */
constexpr uint32_t
divu(uint32_t a, uint32_t b)
{
    return b == 0 ? ~uint32_t{0} : a / b;
}

/** Signed remainder: x % 0 is x, INT_MIN % -1 is 0. */
constexpr uint32_t
rem(uint32_t a, uint32_t b)
{
    if (b == 0) {
        return a;
    }
    if (a == kIntMin && b == ~uint32_t{0}) {
        return 0;
    }
    return static_cast<uint32_t>(static_cast<int32_t>(a) %
                                 static_cast<int32_t>(b));
}

/** Unsigned remainder: x % 0 is x. */
constexpr uint32_t
remu(uint32_t a, uint32_t b)
{
    return b == 0 ? a : a % b;
}

/** Whether a conditional branch @p op is taken; false for any other op. */
constexpr bool
branchTaken(Op op, uint32_t a, uint32_t b)
{
    switch (op) {
      case Op::Beq: return a == b;
      case Op::Bne: return a != b;
      case Op::Blt: return slt(a, b) != 0;
      case Op::Bge: return slt(a, b) == 0;
      case Op::Bltu: return a < b;
      case Op::Bgeu: return a >= b;
      default: return false;
    }
}

static_assert(sll(1, 33) == 2 && srl(0x80000000u, 63) == 1);
static_assert(sra(kIntMin, 31) == ~uint32_t{0} && sra(0x40000000u, 30) == 1);
static_assert(slt(~uint32_t{0}, 0) == 1 && sltu(~uint32_t{0}, 0) == 0);
static_assert(mulh(kIntMin, kIntMin) == 0x40000000u);
static_assert(mulh(~uint32_t{0}, 1) == ~uint32_t{0});
static_assert(mulhsu(~uint32_t{0}, ~uint32_t{0}) == ~uint32_t{0});
static_assert(mulhsu(1, ~uint32_t{0}) == 0);
static_assert(mulhu(~uint32_t{0}, ~uint32_t{0}) == 0xfffffffeu);
static_assert(div(7, 0) == ~uint32_t{0} && divu(7, 0) == ~uint32_t{0});
static_assert(rem(7, 0) == 7 && remu(7, 0) == 7);
static_assert(div(kIntMin, ~uint32_t{0}) == kIntMin);
static_assert(rem(kIntMin, ~uint32_t{0}) == 0);
static_assert(div(static_cast<uint32_t>(-7), 2) == static_cast<uint32_t>(-3));
static_assert(rem(static_cast<uint32_t>(-7), 2) == static_cast<uint32_t>(-1));
static_assert(branchTaken(Op::Blt, ~uint32_t{0}, 0) &&
              !branchTaken(Op::Bltu, ~uint32_t{0}, 0));
static_assert(branchTaken(Op::Bge, 0, 0) && branchTaken(Op::Bgeu, 0, 0) &&
              !branchTaken(Op::Bne, 5, 5) && !branchTaken(Op::Add, 0, 0));

/** A 64-bit bound read into a 32-bit register: 2^32 reads as all ones. */
constexpr uint32_t
saturate32(uint64_t value)
{
    return value > 0xffffffffull ? 0xffffffffu : static_cast<uint32_t>(value);
}

/**
 * Write to @p rd the value register-to-register op @p op produces,
 * given its immediate and the values of rs1 and rs2: Lui, the OP-IMM,
 * OP and M integer ops, the CGet* field reads and the capability
 * manipulations. Integer results are untagged
 * (Capability::fromInteger). Any other op writes the null capability.
 *
 * @p rd may be @p rs1 or @p rs2 (the executor passes the destination
 * register itself), so every case reads its operands before it writes
 * @p rd. CMove copies rs1 into @p rd, and the address ops move the
 * copy's address there, with no temporary.
 */
[[gnu::always_inline]] inline void
evaluate(cap::Capability &rd, Op op, int32_t imm, const cap::Capability &rs1,
         const cap::Capability &rs2)
{
    using cap::Capability;
    const uint32_t a = rs1.address();
    const uint32_t b = rs2.address();
    const uint32_t i = static_cast<uint32_t>(imm);
    const auto integer = [&](uint32_t value) {
        rd = Capability::fromInteger(value);
    };
    // A seal, unseal or sentry that fails yields rs1 untagged.
    const auto orUntagged = [&](const std::optional<Capability> &c) {
        rd = c ? *c : rs1.withTagCleared();
    };
    // rs1 at @p address; the operands are already read.
    const auto moved = [&](uint32_t address) {
        if (&rd != &rs1) {
            rd = rs1;
        }
        rd.setAddress(address);
    };
    switch (op) {
      case Op::Lui: integer(i); return;
      case Op::Addi: integer(a + i); return;
      case Op::Slti: integer(slt(a, i)); return;
      case Op::Sltiu: integer(sltu(a, i)); return;
      case Op::Xori: integer(a ^ i); return;
      case Op::Ori: integer(a | i); return;
      case Op::Andi: integer(a & i); return;
      case Op::Slli: integer(sll(a, i)); return;
      case Op::Srli: integer(srl(a, i)); return;
      case Op::Srai: integer(sra(a, i)); return;
      case Op::Add: integer(a + b); return;
      case Op::Sub: integer(a - b); return;
      case Op::Sll: integer(sll(a, b)); return;
      case Op::Slt: integer(slt(a, b)); return;
      case Op::Sltu: integer(sltu(a, b)); return;
      case Op::Xor: integer(a ^ b); return;
      case Op::Srl: integer(srl(a, b)); return;
      case Op::Sra: integer(sra(a, b)); return;
      case Op::Or: integer(a | b); return;
      case Op::And: integer(a & b); return;
      case Op::Mul: integer(a * b); return;
      case Op::Mulh: integer(mulh(a, b)); return;
      case Op::Mulhsu: integer(mulhsu(a, b)); return;
      case Op::Mulhu: integer(mulhu(a, b)); return;
      case Op::Div: integer(div(a, b)); return;
      case Op::Divu: integer(divu(a, b)); return;
      case Op::Rem: integer(rem(a, b)); return;
      case Op::Remu: integer(remu(a, b)); return;

      case Op::CGetPerm: integer(rs1.perms().mask()); return;
      case Op::CGetType: integer(rs1.typeAddress()); return;
      case Op::CGetBase: integer(rs1.base()); return;
      case Op::CGetLen: integer(saturate32(rs1.length())); return;
      case Op::CGetTop: integer(saturate32(rs1.top())); return;
      case Op::CGetTag: integer(rs1.tag() ? 1 : 0); return;
      case Op::CGetAddr: integer(a); return;

      case Op::CSeal: orUntagged(cap::seal(rs1, rs2)); return;
      case Op::CUnseal: orUntagged(cap::unseal(rs1, rs2)); return;
      case Op::CAndPerm:
        rd = rs1.withPermsAnd(static_cast<uint16_t>(b));
        return;
      case Op::CSetAddr: moved(b); return;
      case Op::CIncAddr: moved(a + b); return;
      case Op::CIncAddrImm: moved(a + i); return;
      case Op::CSetBounds: rd = rs1.withBounds(b); return;
      case Op::CSetBoundsExact: rd = rs1.withBoundsExact(b); return;
      case Op::CSetBoundsImm: rd = rs1.withBounds(i); return;
      case Op::CTestSubset: integer(cap::isSubsetOf(rs2, rs1) ? 1 : 0); return;
      case Op::CSetEqualExact: integer(rs1 == rs2 ? 1 : 0); return;
      case Op::CMove: rd = rs1; return;
      case Op::CClearTag: rd = rs1.withTagCleared(); return;
      case Op::CRrl:
        integer(static_cast<uint32_t>(cap::representableLength(a)));
        return;
      case Op::CRam: integer(cap::representableAlignmentMask(a)); return;
      case Op::CSealEntry:
        orUntagged(
            cap::makeSentry(rs1, static_cast<cap::InterruptPosture>(imm)));
        return;
      default: rd = Capability(); return;
    }
}

/**
 * The capability checks of an access through @p auth to
 * [@p addr, @p addr + @p bytes) that needs @p needPerm, in trap
 * priority order: tag, seal, permission, bounds, alignment. None when
 * all pass. @p bytes is 1, 2, 4 or 8, so alignment is a mask test.
 * Whether the address is mapped is the machine's check, and comes
 * next.
 */
[[gnu::always_inline]] inline TrapCause
accessCause(const cap::Capability &auth, uint32_t addr, unsigned bytes,
            uint16_t needPerm)
{
    if (!auth.tag()) {
        return TrapCause::CheriTagViolation;
    }
    if (auth.isSealed()) {
        return TrapCause::CheriSealViolation;
    }
    if (!auth.perms().has(needPerm)) {
        return TrapCause::CheriPermViolation;
    }
    if (!auth.inBounds(addr, bytes)) {
        return TrapCause::CheriBoundsViolation;
    }
    if ((addr & (bytes - 1)) != 0) {
        return TrapCause::MisalignedAccess;
    }
    return TrapCause::None;
}

/**
 * What a capability store through @p auth checks once the access
 * itself is allowed: a tagged value (@p storesTag) needs MC, and a
 * local one (@p storesLocal) Store-Local as well, the 1-bit
 * information-flow scheme of §2.6 that keeps stack capabilities on
 * stacks.
 */
[[gnu::always_inline]] inline TrapCause
capStoreCause(const cap::Capability &auth, bool storesTag, bool storesLocal)
{
    if (!storesTag) {
        return TrapCause::None;
    }
    if (!auth.perms().has(cap::PermMemCap)) {
        return TrapCause::CheriPermViolation;
    }
    if (storesLocal && !auth.perms().has(cap::PermStoreLocal)) {
        return TrapCause::CheriStoreLocalViolation;
    }
    return TrapCause::None;
}

} // namespace cheriot::isa

#endif // CHERIOT_ISA_SEMANTICS_H
