/**
 * @file
 * Integer semantics of the RV32EM operations whose results are more
 * than a C++ operator: shifts (only the low five bits of the amount
 * count), signed comparisons, the high halves of the multiplies,
 * division and remainder with their two corner cases (by zero, and
 * INT_MIN by -1, which RISC-V defines rather than traps), and the six
 * branch conditions.
 *
 * The executor and the static verifier call these from their own
 * per-op switch cases, so each result has one definition and the
 * interpreter pays no second dispatch.
 */

#ifndef CHERIOT_ISA_SEMANTICS_H
#define CHERIOT_ISA_SEMANTICS_H

#include "isa/encoding.h"

#include <cstdint>

namespace cheriot::isa
{

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

} // namespace cheriot::isa

#endif // CHERIOT_ISA_SEMANTICS_H
