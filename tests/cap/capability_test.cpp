/**
 * @file
 * Tests for the Capability value type: packing (Fig. 1 layout),
 * guarded manipulation (monotonicity), sealing, sentries, and the
 * recursive load attenuation of LG/LM (§3.1.1).
 */

#include "cap/capability.h"

#include "util/rng.h"

#include <gtest/gtest.h>

namespace cheriot::cap
{
namespace
{

Capability
testCap(uint32_t base, uint32_t length)
{
    Capability c = Capability::memoryRoot().withAddress(base);
    return c.withBounds(length);
}

TEST(Capability, NullIsUntaggedAndZero)
{
    const Capability null;
    EXPECT_FALSE(null.tag());
    EXPECT_EQ(null.toBits(), 0u);
    EXPECT_EQ(null.address(), 0u);
    EXPECT_EQ(null.perms().mask(), 0u);
}

TEST(Capability, PackUnpackRoundTrip)
{
    Rng rng(42);
    for (int i = 0; i < 100000; ++i) {
        const uint64_t bits =
            (static_cast<uint64_t>(rng.next()) << 32) | rng.next();
        const bool tag = rng.chance(1, 2);
        const Capability c = Capability::fromBits(bits, tag);
        EXPECT_EQ(c.toBits(), bits);
        EXPECT_EQ(c.tag(), tag);
    }
}

TEST(Capability, RootsHaveExpectedAuthority)
{
    const Capability mem = Capability::memoryRoot();
    EXPECT_TRUE(mem.tag());
    EXPECT_EQ(mem.base(), 0u);
    EXPECT_EQ(mem.top(), uint64_t{1} << 32);
    EXPECT_TRUE(mem.perms().has(PermLoad | PermStore | PermMemCap |
                                PermStoreLocal | PermGlobal));
    EXPECT_FALSE(mem.perms().has(PermExecute));

    const Capability exec = Capability::executableRoot();
    EXPECT_TRUE(exec.perms().has(PermExecute | PermSystemRegs));
    EXPECT_FALSE(exec.perms().has(PermStore)); // W^X

    const Capability seal = Capability::sealingRoot();
    EXPECT_TRUE(seal.perms().has(PermSeal | PermUnseal));
    EXPECT_EQ(seal.base(), 0u);
    EXPECT_EQ(seal.top(), kOtypeAddressSpaceSize);
}

TEST(Capability, BoundsNarrowingIsMonotone)
{
    const Capability outer = testCap(0x20001000, 0x1000);
    ASSERT_TRUE(outer.tag());

    // Narrowing works.
    const Capability inner =
        outer.withAddress(0x20001100).withBounds(0x100);
    EXPECT_TRUE(inner.tag());
    EXPECT_EQ(inner.base(), 0x20001100u);
    EXPECT_EQ(inner.top(), 0x20001200u);

    // Widening is impossible: requesting more than remains untags.
    const Capability widened = inner.withBounds(0x1000);
    EXPECT_FALSE(widened.tag());

    // Displacement below base untags.
    const Capability displaced =
        inner.withAddress(0x20000000).withBounds(0x10);
    EXPECT_FALSE(displaced.tag());
}

TEST(Capability, PermissionsCanOnlyBeShed)
{
    const Capability rw = testCap(0x20000000, 64);
    const Capability ro =
        rw.withPermsAnd(static_cast<uint16_t>(~PermStore));
    EXPECT_TRUE(ro.tag());
    EXPECT_FALSE(ro.perms().has(PermStore));

    // "Re-adding" via a full mask cannot restore SD.
    const Capability restored = ro.withPermsAnd(kAllPerms);
    EXPECT_FALSE(restored.perms().has(PermStore));
}

TEST(Capability, TagClearedIsPermanent)
{
    const Capability c = testCap(0x20000000, 64).withTagCleared();
    EXPECT_FALSE(c.tag());
    EXPECT_FALSE(c.withAddress(0x20000000).tag());
    EXPECT_FALSE(c.withBounds(8).tag());
}

TEST(Capability, OutOfRepresentableRangeUntags)
{
    // §3.2.3: in the worst case the representable range equals the
    // bounds; addresses below base always invalidate.
    const Capability c = testCap(0x20000400, 256);
    EXPECT_TRUE(c.withAddressOffset(255).tag());
    EXPECT_FALSE(c.withAddress(0x10000000).tag());
    EXPECT_FALSE(c.withAddressOffset(-0x400 - 4096).tag());
}

TEST(Capability, InBoundsChecks)
{
    const Capability c = testCap(0x20000100, 0x100);
    EXPECT_TRUE(c.inBounds(0x20000100, 4));
    EXPECT_TRUE(c.inBounds(0x200001fc, 4));
    EXPECT_FALSE(c.inBounds(0x200001fd, 4)); // straddles top
    EXPECT_FALSE(c.inBounds(0x200000fc, 4)); // below base
    EXPECT_TRUE(c.inBounds(0x20000200, 0));  // empty access at top
}

TEST(Capability, SealUnsealViaAuthority)
{
    const Capability target = testCap(0x20000000, 64);
    const Capability sealer =
        Capability::sealingRoot().withAddress(kOtypeAllocator);

    const auto sealed = seal(target, sealer);
    ASSERT_TRUE(sealed.has_value());
    EXPECT_TRUE(sealed->tag());
    EXPECT_TRUE(sealed->isSealed());
    EXPECT_EQ(sealed->otype(), kOtypeAllocator);

    // Sealed capabilities are immutable: mutation clears the tag.
    EXPECT_FALSE(sealed->withAddress(0x20000010).tag());
    EXPECT_FALSE(sealed->withBounds(8).tag());
    EXPECT_FALSE(sealed->withPermsAnd(0).tag());

    // Double sealing fails.
    EXPECT_FALSE(seal(*sealed, sealer).has_value());

    // Unsealing with the right otype restores the original.
    const auto unsealed = unseal(*sealed, sealer);
    ASSERT_TRUE(unsealed.has_value());
    EXPECT_EQ(*unsealed, target);

    // Wrong otype cannot unseal.
    const Capability wrongSealer =
        Capability::sealingRoot().withAddress(kOtypeScheduler);
    EXPECT_FALSE(unseal(*sealed, wrongSealer).has_value());
}

TEST(Capability, SealRequiresPermission)
{
    const Capability target = testCap(0x20000000, 64);
    const Capability noSeal =
        Capability::sealingRoot()
            .withAddress(kOtypeAllocator)
            .withPermsAnd(static_cast<uint16_t>(~PermSeal));
    EXPECT_FALSE(seal(target, noSeal).has_value());

    const Capability noUnseal =
        Capability::sealingRoot()
            .withAddress(kOtypeAllocator)
            .withPermsAnd(static_cast<uint16_t>(~PermUnseal));
    const auto sealed = seal(
        target, Capability::sealingRoot().withAddress(kOtypeAllocator));
    ASSERT_TRUE(sealed.has_value());
    EXPECT_FALSE(unseal(*sealed, noUnseal).has_value());
}

TEST(Capability, ExecutableAndDataOtypesAreDisjoint)
{
    // The same otype address seals only the matching namespace.
    const Capability data = testCap(0x20000000, 64);
    const Capability code = Capability::executableRoot()
                                .withAddress(0x20000000)
                                .withBounds(64);
    const Capability dataSealer =
        Capability::sealingRoot().withAddress(kDataOtypeAddressBase + 2);
    const Capability execSealer =
        Capability::sealingRoot().withAddress(kExecOtypeAddressBase + 6);

    EXPECT_TRUE(seal(data, dataSealer).has_value());
    EXPECT_FALSE(seal(code, dataSealer).has_value());
    EXPECT_TRUE(seal(code, execSealer).has_value());
    EXPECT_FALSE(seal(data, execSealer).has_value());
}

TEST(Capability, SentryCreationAndClassification)
{
    const Capability code = Capability::executableRoot()
                                .withAddress(0x20000000)
                                .withBounds(0x1000);
    const auto sentry =
        makeSentry(code, InterruptPosture::Disabled);
    ASSERT_TRUE(sentry.has_value());
    EXPECT_TRUE(sentry->isForwardSentry());
    EXPECT_FALSE(sentry->isReturnSentry());
    EXPECT_EQ(sentryPosture(sentry->otype()), InterruptPosture::Disabled);

    // Only executable capabilities can become sentries.
    EXPECT_FALSE(
        makeSentry(testCap(0x20000000, 64), InterruptPosture::Enabled)
            .has_value());

    const Capability ret =
        code.sealedWith(returnSentryFor(/*interruptsEnabled=*/true));
    EXPECT_TRUE(ret.isReturnSentry());
    EXPECT_TRUE(returnSentryEnablesInterrupts(ret.otype()));
}

TEST(Capability, LoadGlobalAttenuationIsRecursive)
{
    // §3.1.1: capabilities loaded via an authority without LG lose
    // both GL and LG — so everything reachable becomes local.
    const Capability authority = testCap(0x20000000, 0x1000)
                                     .withPermsAnd(static_cast<uint16_t>(
                                         ~PermLoadGlobal));
    const Capability loaded = testCap(0x20000100, 16);
    ASSERT_TRUE(loaded.perms().has(PermGlobal | PermLoadGlobal));

    Capability attenuated = loaded;
    attenuated.attenuateForLoad(authority.perms());
    EXPECT_TRUE(attenuated.tag());
    EXPECT_FALSE(attenuated.perms().has(PermGlobal));
    EXPECT_FALSE(attenuated.perms().has(PermLoadGlobal));
    EXPECT_TRUE(attenuated.isLocal());
}

TEST(Capability, LoadMutableAttenuationGivesDeepImmutability)
{
    // §3.1.1: loads through a non-LM authority clear SD and LM, so a
    // read-only view of a data structure is transitively read-only.
    const Capability authority = testCap(0x20000000, 0x1000)
                                     .withPermsAnd(static_cast<uint16_t>(
                                         ~PermLoadMutable));
    const Capability loaded = testCap(0x20000200, 32);
    Capability attenuated = loaded;
    attenuated.attenuateForLoad(authority.perms());
    EXPECT_FALSE(attenuated.perms().has(PermStore));
    EXPECT_FALSE(attenuated.perms().has(PermLoadMutable));
    // And read permission survives.
    EXPECT_TRUE(attenuated.perms().has(PermLoad));
}

TEST(Capability, SubsetTest)
{
    const Capability parent = testCap(0x20001000, 0x1000);
    const Capability child =
        parent.withAddress(0x20001800).withBounds(0x100);
    EXPECT_TRUE(isSubsetOf(child, parent));
    EXPECT_FALSE(isSubsetOf(parent, child));
    EXPECT_FALSE(isSubsetOf(child.withTagCleared(), parent));
}

TEST(Capability, ExactEqualityIncludesTag)
{
    const Capability a = testCap(0x20000000, 64);
    EXPECT_TRUE(a == a);
    EXPECT_FALSE(a == a.withTagCleared());
    EXPECT_FALSE(a == a.withAddressOffset(8));
}

} // namespace
} // namespace cheriot::cap
