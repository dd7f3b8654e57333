/**
 * @file
 * Property fuzzing of guarded manipulation (paper §2.4): starting
 * from any root, *no sequence of capability operations can increase
 * authority* — bounds only narrow, permissions only shed, tags only
 * clear, and sealed values only transit seal/unseal pairs under
 * authority. This is the architectural half of the paper's security
 * argument, checked over hundreds of thousands of random op chains.
 */

#include "cap/capability.h"

#include "util/rng.h"

#include <gtest/gtest.h>

namespace cheriot::cap
{
namespace
{

/** Authority lattice: does @p c grant no more than @p bound? */
bool
withinAuthority(const Capability &c, const Capability &bound)
{
    if (!c.tag()) {
        return true; // Untagged grants nothing.
    }
    if (!bound.tag()) {
        return false;
    }
    return c.base() >= bound.base() && c.top() <= bound.top() &&
           c.perms().subsetOf(bound.perms());
}

Capability
randomMutation(Rng &rng, const Capability &c, const Capability &sealer)
{
    switch (rng.below(9)) {
      case 0:
        return c.withAddress(rng.next());
      case 1:
        return c.withAddressOffset(
            static_cast<int32_t>(rng.next()) >> (rng.below(20) + 8));
      case 2:
        return c.withBounds(rng.next() & 0xffff);
      case 3:
        return c.withBoundsExact(rng.next() & 0x1ff);
      case 4:
        return c.withPermsAnd(static_cast<uint16_t>(rng.next()));
      case 5:
        return c.withTagCleared();
      case 6: {
        const auto sealed = seal(c, sealer);
        return sealed ? *sealed : c;
      }
      case 7: {
        const auto unsealed = unseal(c, sealer);
        return unsealed ? *unsealed : c;
      }
      default:
        // Round-trip through the memory representation.
        return Capability::fromBits(c.toBits(), c.tag());
    }
}

TEST(MonotonicityFuzz, NoOperationChainIncreasesAuthority)
{
    Rng rng(0x5ecu);
    const Capability roots[] = {
        Capability::memoryRoot(),
        Capability::executableRoot(),
        Capability::memoryRoot().withAddress(0x20010000).withBounds(4096),
    };
    const Capability sealer =
        Capability::sealingRoot().withAddress(kOtypeToken);

    for (const Capability &root : roots) {
        for (int chain = 0; chain < 2000; ++chain) {
            Capability current = root;
            for (int step = 0; step < 24; ++step) {
                const Capability next =
                    randomMutation(rng, current, sealer);
                // Sealed intermediates carry the same authority;
                // compare through an unsealed view.
                const Capability effective =
                    next.isSealed() ? next.unsealedCopy() : next;
                ASSERT_TRUE(withinAuthority(effective, root))
                    << "root " << root.toString() << "\n  current "
                    << current.toString() << "\n  next "
                    << next.toString();
                // And stepwise monotonicity against the predecessor
                // (unless the step was a seal/unseal round trip).
                if (!next.isSealed() && !current.isSealed()) {
                    ASSERT_TRUE(withinAuthority(next, current.tag()
                                                          ? current
                                                          : root))
                        << current.toString() << " -> "
                        << next.toString();
                }
                current = next;
            }
        }
    }
}

TEST(MonotonicityFuzz, PackedRepresentationCannotAmplify)
{
    // Flipping arbitrary bits of the in-memory image of a capability
    // (with the tag forcibly clear, as any data write leaves it)
    // never yields usable authority: the tag is the sole validity
    // carrier.
    Rng rng(0xbadbad);
    const Capability victim = Capability::memoryRoot()
                                  .withAddress(0x20001000)
                                  .withBounds(64);
    for (int i = 0; i < 100000; ++i) {
        uint64_t bits = victim.toBits();
        bits ^= uint64_t{1} << rng.below(64);
        if (rng.chance(1, 2)) {
            bits ^= uint64_t{1} << rng.below(64);
        }
        const Capability forged = Capability::fromBits(bits, false);
        EXPECT_FALSE(forged.tag());
    }
}

TEST(MonotonicityFuzz, LoadAttenuationIsIdempotentAndMonotone)
{
    Rng rng(0xa77e);
    for (int i = 0; i < 50000; ++i) {
        const Capability loaded =
            Capability::memoryRoot()
                .withAddress(0x20000000 + (rng.next() & 0xfff8))
                .withBounds(rng.below(256) + 8)
                .withPermsAnd(static_cast<uint16_t>(rng.next()));
        const PermSet authority(static_cast<uint16_t>(rng.next()));
        Capability once = loaded;
        once.attenuateForLoad(authority);
        Capability twice = once;
        twice.attenuateForLoad(authority);
        EXPECT_EQ(once, twice) << "idempotent";
        EXPECT_TRUE(once.perms().subsetOf(loaded.perms())) << "monotone";
        if (!authority.has(PermLoadGlobal)) {
            EXPECT_FALSE(once.perms().hasAny(PermGlobal | PermLoadGlobal));
        }
        if (!authority.has(PermLoadMutable) &&
            !once.perms().has(PermExecute)) {
            EXPECT_FALSE(once.perms().hasAny(PermStore | PermLoadMutable));
        }
    }
}

} // namespace
} // namespace cheriot::cap
