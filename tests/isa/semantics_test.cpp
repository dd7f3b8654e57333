/**
 * @file
 * isa::evaluate writes its result in place, and the executor passes
 * the destination register itself, which may be rs1 or rs2. Every
 * register-to-register op must give the same value whichever operand
 * its destination is.
 */

#include "isa/semantics.h"
#include "register_ops.h"
#include "util/rng.h"

#include <gtest/gtest.h>

namespace cheriot::isa
{
namespace
{

using cap::Capability;

/** A seeded operand: an integer, an arbitrary image, a root, or a
 * bounded, attenuated, sealed or sentry capability derived from one. */
Capability
seededOperand(Rng &rng)
{
    const Capability data =
        Capability::memoryRoot()
            .withAddress(0x20000000 + rng.below(1u << 20))
            .withBounds(1 + rng.below(1u << 12));
    const Capability code = Capability::executableRoot().withAddress(
        0x20000000 + 4 * rng.below(1u << 16));
    // An otype address for either namespace: a sealing authority.
    const Capability authority =
        Capability::sealingRoot().withAddress(rng.below(16));
    switch (rng.below(9)) {
      case 0: return Capability::fromInteger(rng.next());
      case 1:
        return Capability::fromBits(rng.next64(), rng.chance(1, 2));
      case 2: return Capability::memoryRoot();
      case 3: return authority;
      case 4: return data;
      case 5:
        return data.withAddress(data.address() + rng.below(64) - 32)
            .withPermsAnd(static_cast<uint16_t>(rng.next()));
      case 6: {
        const auto sealed = cap::seal(data, authority);
        return sealed ? *sealed : data;
      }
      case 7:
        return *cap::makeSentry(
            code, static_cast<cap::InterruptPosture>(rng.below(3)));
      default: return code;
    }
}

/** A seeded immediate of the kind @p op takes. */
int32_t
seededImm(Op op, Rng &rng)
{
    switch (summaryOf(op).immKind) {
      case ImmKind::I12: return static_cast<int32_t>(rng.below(4096)) - 2048;
      case ImmKind::U12: return static_cast<int32_t>(rng.below(4096));
      case ImmKind::U20:
        return static_cast<int32_t>(rng.below(1u << 20) << 12);
      case ImmKind::Shamt: return static_cast<int32_t>(rng.below(32));
      case ImmKind::Posture: return static_cast<int32_t>(rng.below(3));
      default: return 0;
    }
}

TEST(Semantics, EvaluateGivesOneValueWhateverRegisterItWrites)
{
    Rng rng(0xa11a5);
    uint64_t compared = 0;
    for (const Op op : registerOps()) {
        SCOPED_TRACE(opName(op));
        for (int i = 0; i < 2000; ++i) {
            const Capability rs1 = seededOperand(rng);
            const Capability rs2 = seededOperand(rng);
            const int32_t imm = seededImm(op, rng);
            Capability fresh;
            evaluate(fresh, op, imm, rs1, rs2);
            Capability asRs1 = rs1;
            evaluate(asRs1, op, imm, asRs1, rs2);
            Capability asRs2 = rs2;
            evaluate(asRs2, op, imm, rs1, asRs2);
            for (const Capability *aliased : {&asRs1, &asRs2}) {
                ASSERT_EQ(aliased->tag(), fresh.tag())
                    << rs1.toString() << ", " << rs2.toString();
                ASSERT_EQ(aliased->toBits(), fresh.toBits())
                    << rs1.toString() << ", " << rs2.toString();
                ASSERT_EQ(aliased->base(), fresh.base());
                ASSERT_EQ(aliased->top(), fresh.top());
            }
            ++compared;
        }
    }
    EXPECT_GT(registerOps().size(), 50u);
    EXPECT_EQ(compared, registerOps().size() * 2000);
}

} // namespace
} // namespace cheriot::isa
