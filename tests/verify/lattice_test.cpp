/**
 * @file
 * The abstract capability lattice: three-valued attribute algebra,
 * Exact/Unknown factories, and the join that underpins the
 * zero-false-positive discipline (checks only fire on definite
 * facts, and join can only lose precision, never invent it).
 */

#include "verify/lattice.h"

#include <gtest/gtest.h>

namespace cheriot::verify
{
namespace
{

using cap::Capability;

TEST(Lattice, TriJoinAlgebra)
{
    const Tri all[] = {Tri::No, Tri::Yes, Tri::Maybe};
    for (const Tri a : all) {
        // Idempotent.
        EXPECT_EQ(joinTri(a, a), a);
        // Maybe is absorbing.
        EXPECT_EQ(joinTri(a, Tri::Maybe), Tri::Maybe);
        EXPECT_EQ(joinTri(Tri::Maybe, a), Tri::Maybe);
        for (const Tri b : all) {
            // Commutative.
            EXPECT_EQ(joinTri(a, b), joinTri(b, a));
        }
    }
    // Disagreement degrades to Maybe.
    EXPECT_EQ(joinTri(Tri::No, Tri::Yes), Tri::Maybe);
    EXPECT_EQ(triOf(true), Tri::Yes);
    EXPECT_EQ(triOf(false), Tri::No);
    EXPECT_STRNE(triName(Tri::Maybe), triName(Tri::Yes));
}

TEST(Lattice, ExactDerivesAttributesFromValue)
{
    const AbstractCap root = AbstractCap::exact(Capability::memoryRoot());
    EXPECT_TRUE(root.isExact());
    EXPECT_TRUE(root.definitelyTagged());
    EXPECT_FALSE(root.definitelyLocal()); // memory root carries GL.
    EXPECT_EQ(root.sealed(), Tri::No);

    const AbstractCap null = AbstractCap::exact(Capability());
    EXPECT_TRUE(null.definitelyUntagged());

    // Stripping GL from an exact value makes it definitely local.
    const AbstractCap local = AbstractCap::exact(
        Capability::memoryRoot().withPermsAnd(
            static_cast<uint16_t>(~cap::PermGlobal)));
    EXPECT_TRUE(local.definitelyLocal());
    EXPECT_TRUE(local.definitelyTagged());
}

TEST(Lattice, IntegerFactoryIsUntaggedWithKnownAddress)
{
    const AbstractCap i = AbstractCap::integer(42);
    EXPECT_TRUE(i.definitelyUntagged());
    EXPECT_TRUE(i.isExact());
    EXPECT_EQ(i.address(), 42u);

    const AbstractCap u = AbstractCap::unknownInt();
    EXPECT_FALSE(u.isExact());
    EXPECT_TRUE(u.definitelyUntagged());
    EXPECT_EQ(u.sealed(), Tri::No);
}

TEST(Lattice, UnknownDefaultsToMaybeEverything)
{
    const AbstractCap u = AbstractCap::unknown();
    EXPECT_FALSE(u.isExact());
    EXPECT_FALSE(u.definitelyTagged());
    EXPECT_FALSE(u.definitelyUntagged());
    EXPECT_FALSE(u.definitelyLocal());
    EXPECT_FALSE(u.definitelySealed());
    EXPECT_NE(u.sealed(), Tri::No);
}

TEST(Lattice, JoinOfEqualExactsStaysExact)
{
    const AbstractCap a = AbstractCap::exact(Capability::memoryRoot());
    const AbstractCap b = AbstractCap::exact(Capability::memoryRoot());
    const AbstractCap joined = a.join(b);
    EXPECT_TRUE(joined.isExact());
    EXPECT_EQ(joined, a);
}

TEST(Lattice, JoinOfUnequalExactsDegradesButKeepsSharedFacts)
{
    // Both tagged, both global, both unsealed — only the value is
    // lost, not the attributes.
    const AbstractCap a = AbstractCap::exact(Capability::memoryRoot());
    const AbstractCap b =
        AbstractCap::exact(Capability::memoryRoot().withAddress(64));
    const AbstractCap joined = a.join(b);
    EXPECT_FALSE(joined.isExact());
    EXPECT_TRUE(joined.definitelyTagged());
    EXPECT_FALSE(joined.definitelyLocal());
    EXPECT_EQ(joined.sealed(), Tri::No);
}

TEST(Lattice, JoinMergesDisagreeingAttributesToMaybe)
{
    const AbstractCap tagged =
        AbstractCap::exact(Capability::memoryRoot());
    const AbstractCap untagged = AbstractCap::exact(Capability());
    const AbstractCap joined = tagged.join(untagged);
    EXPECT_FALSE(joined.isExact());
    EXPECT_EQ(joined.tagged(), Tri::Maybe);
    // Neither side is definitely anything any more.
    EXPECT_FALSE(joined.definitelyTagged());
    EXPECT_FALSE(joined.definitelyUntagged());
}

TEST(Lattice, JoinIsCommutativeOnAttributes)
{
    const AbstractCap samples[] = {
        AbstractCap::exact(Capability::memoryRoot()),
        AbstractCap::exact(Capability()),
        AbstractCap::unknown(Tri::Yes, Tri::No, Tri::No),
        AbstractCap::unknown(),
        AbstractCap::unknownInt(),
    };
    for (const auto &a : samples) {
        for (const auto &b : samples) {
            const AbstractCap ab = a.join(b);
            const AbstractCap ba = b.join(a);
            EXPECT_EQ(ab.tagged(), ba.tagged());
            EXPECT_EQ(ab.local(), ba.local());
            EXPECT_EQ(ab.sealed(), ba.sealed());
            EXPECT_EQ(ab.isExact(), ba.isExact());
        }
    }
}

TEST(Lattice, StateWriteRespectsZeroRegister)
{
    AbstractState state;
    state.write(0, AbstractCap::exact(Capability::memoryRoot()));
    EXPECT_TRUE(state.reg(0).isExact());
    EXPECT_TRUE(state.reg(0).definitelyUntagged()); // still null.

    state.write(isa::A0, AbstractCap::exact(Capability::memoryRoot()));
    EXPECT_TRUE(state.reg(isa::A0).definitelyTagged());
}

TEST(Lattice, StateJoinIsPerRegister)
{
    AbstractState a;
    AbstractState b;
    a.write(isa::A0, AbstractCap::exact(Capability::memoryRoot()));
    b.write(isa::A0,
            AbstractCap::exact(Capability::memoryRoot().withAddress(8)));
    a.write(isa::A1, AbstractCap::integer(7));
    b.write(isa::A1, AbstractCap::integer(7));

    const AbstractState joined = a.join(b);
    EXPECT_FALSE(joined.reg(isa::A0).isExact());
    EXPECT_TRUE(joined.reg(isa::A0).definitelyTagged());
    // Agreeing registers keep their exact value.
    EXPECT_TRUE(joined.reg(isa::A1).isExact());
    EXPECT_EQ(joined.reg(isa::A1).address(), 7u);
}

TEST(Lattice, StateEqualityAndFixpoint)
{
    AbstractState a;
    a.write(isa::A0, AbstractCap::exact(Capability::memoryRoot()));
    AbstractState b = a;
    EXPECT_TRUE(a == b);
    // Joining with itself is a fixed point (what makes the worklist
    // terminate).
    EXPECT_TRUE(a.join(b) == a);

    b.write(isa::A2, AbstractCap::unknown());
    EXPECT_FALSE(a == b);
}

TEST(Lattice, ToStringMentionsInterestingRegisters)
{
    AbstractState state;
    state.write(isa::A0, AbstractCap::exact(Capability::memoryRoot()));
    const std::string text = state.toString();
    EXPECT_NE(text.find("a0"), std::string::npos) << text;
    // The null registers are elided to keep diagnostics readable.
    EXPECT_EQ(text.find("a5"), std::string::npos) << text;
}

} // namespace
} // namespace cheriot::verify
