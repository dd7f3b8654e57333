/**
 * @file
 * Exhaustive bounds-codec verification (paper §3.2.3: "we implemented
 * encoding and decoding in Sail and used its SMT solver backend to
 * check some important properties of the encoding scheme").
 *
 * Without an SMT solver we brute-force the full encoded space: every
 * (E, B, T) combination — all 16 × 512 × 512 ≈ 4.2 M encodings —
 * against structured address samples, checking the decode laws; and
 * the full request space at small exponents for encode minimality.
 *
 * Capability caches its decoded base, top and permission set beside
 * the encoded fields; the DecodedForm tests check that cache against
 * the codec over the same spaces.
 */

#include "cap/bounds.h"
#include "cap/capability.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace cheriot::cap
{
namespace
{

TEST(CodecExhaustive, DecodeLawsOverTheFullEncodedSpace)
{
    // For every encoding and a grid of addresses, the laws that hold
    // for *arbitrary* bit patterns (including unreachable garbage —
    // which is harmless, as garbage is untagged):
    //  1. base and top are 2^e aligned (the low bits are zeroed).
    //  2. the splice law: base ≡ B<<e and top ≡ T<<e modulo the
    //     2^(e+9) region size — B and T are inserted verbatim.
    //  3. windows *reachable through encodeBounds* additionally have
    //     0 <= top - base <= 511<<e (checked in the round-trip and
    //     encode tests below; unreachable patterns may wrap).
    uint64_t checked = 0;
    for (uint32_t eField = 0; eField <= 0xf; ++eField) {
        const unsigned e = effectiveExponent(static_cast<uint8_t>(eField));
        for (uint32_t b9 = 0; b9 < 512; ++b9) {
            for (uint32_t t9 = 0; t9 < 512; ++t9) {
                const EncodedBounds encoded{
                    static_cast<uint8_t>(eField),
                    static_cast<uint16_t>(b9),
                    static_cast<uint16_t>(t9)};
                for (const uint64_t addrSeed :
                     {uint64_t{0}, uint64_t{1} << (e + 3),
                      uint64_t{0x20004000}, uint64_t{0xfffffff8},
                      (uint64_t{b9} << e) + (uint64_t{3} << (e + 9))}) {
                    const uint32_t addr =
                        static_cast<uint32_t>(addrSeed);
                    const DecodedBounds decoded =
                        decodeBounds(encoded, addr);
                    ++checked;

                    const uint64_t granule = uint64_t{1} << e;
                    EXPECT_EQ(decoded.base % granule, 0u)
                        << "E=" << eField << " B=" << b9 << " T=" << t9;
                    EXPECT_EQ(decoded.top % granule, 0u);
                    // The splice law. The base lives in 32 bits (the
                    // top in 33), so at the e=24 escape the law holds
                    // modulo the respective representation width.
                    const uint64_t region = uint64_t{1} << (e + 9);
                    const uint64_t baseMod =
                        std::min(region, uint64_t{1} << 32);
                    const uint64_t topMod =
                        std::min(region, uint64_t{1} << 33);
                    EXPECT_EQ(decoded.base % baseMod,
                              (uint64_t{b9} << e) % baseMod);
                    EXPECT_EQ(decoded.top % topMod,
                              (uint64_t{t9} << e) % topMod);
                }
            }
        }
    }
    EXPECT_EQ(checked, uint64_t{16} * 512 * 512 * 5);
}

TEST(CodecExhaustive, EncodeIsExactForAllSmallRequests)
{
    // Every (base mod 4096, length <= 511) pair encodes exactly.
    for (uint32_t base = 0; base < 4096; base += 1) {
        for (uint32_t length = 0; length <= 511; length += 13) {
            const auto result = encodeBounds(0x10000000 + base, length);
            ASSERT_TRUE(result.exact) << base << "+" << length;
            ASSERT_EQ(result.encoded.exponent, 0u);
        }
    }
}

TEST(CodecExhaustive, EncodeMinimalityAtEveryExponentBoundary)
{
    // Lengths straddling each exponent's capacity choose the smallest
    // usable exponent.
    for (unsigned e = 0; e <= kMaxDirectExponent; ++e) {
        const uint64_t maxAtE = uint64_t{511} << e;
        const auto atLimit = encodeBounds(0, maxAtE);
        EXPECT_EQ(effectiveExponent(atLimit.encoded.exponent), e)
            << "length " << maxAtE;
        EXPECT_TRUE(atLimit.exact);

        const auto justOver = encodeBounds(0, maxAtE + 1);
        EXPECT_GT(effectiveExponent(justOver.encoded.exponent), e);
        EXPECT_GE(justOver.decoded.top, maxAtE + 1);
    }
    // Beyond e = 14 the encoding must jump to the 24 escape.
    const auto huge = encodeBounds(0, (uint64_t{511} << 14) + 1);
    EXPECT_EQ(huge.encoded.exponent, 0xf);
}

TEST(CodecExhaustive, RoundTripAtEveryAlignedWindow)
{
    // For each exponent, every aligned window inside a test region
    // round-trips exactly through encode→decode.
    for (unsigned e : {0u, 1u, 4u, 9u, 14u}) {
        const uint32_t granule = 1u << e;
        const uint32_t regionBase = 0x20000000;
        for (uint32_t slot = 0; slot < 64; ++slot) {
            for (uint32_t span : {1u, 3u, 17u, 200u, 511u}) {
                const uint32_t base = regionBase + slot * granule * 8;
                const uint64_t length = uint64_t{span} << e;
                const auto result = encodeBounds(base, length);
                EXPECT_TRUE(result.exact)
                    << "e=" << e << " span=" << span;
                EXPECT_EQ(result.decoded.base, base);
                EXPECT_EQ(result.decoded.top, base + length);
            }
        }
    }
}

TEST(CodecExhaustive, RepresentableRangeNeverExtendsBelowBase)
{
    // §3.2.3: "in all cases addresses below the base are invalid".
    for (uint32_t base = 0x1000; base <= 0x2000; base += 64) {
        for (uint32_t length : {16u, 100u, 511u, 513u, 4096u}) {
            const auto result = encodeBounds(base, length);
            const uint32_t decodedBase = result.decoded.base;
            if (decodedBase == 0) {
                continue;
            }
            EXPECT_FALSE(addressPreservesBounds(result.encoded, base,
                                                decodedBase - 1))
                << "base " << base << " len " << length;
        }
    }
}

TEST(CodecExhaustive, CrrlCramConsistencyEverywhere)
{
    // For every length on a dense grid: aligning any base with CRAM
    // and rounding the length with CRRL yields an exact encoding —
    // the contract the allocator depends on (§5.1).
    for (uint64_t length = 1; length <= (1u << 16); length += 37) {
        const uint64_t rounded = representableLength(length);
        const uint32_t mask = representableAlignmentMask(length);
        ASSERT_GE(rounded, length);
        // Mask must be of the form ~(2^e - 1).
        const uint32_t alignment = ~mask + 1;
        ASSERT_TRUE(alignment != 0 &&
                    (alignment & (alignment - 1)) == 0);
        for (const uint32_t rawBase : {0x20000005u, 0x2000abcdu,
                                       0x3ffffff1u}) {
            const uint32_t base = rawBase & mask;
            const auto result = encodeBounds(base, rounded);
            ASSERT_TRUE(result.exact)
                << "len " << length << " base 0x" << std::hex << base;
        }
    }
}

// Registers and argument vectors copy whole capabilities.
static_assert(sizeof(Capability) <= 32);

constexpr uint64_t kAddressMask = 0xffffffffull;

/** A tagged capability with the given metadata word and address. */
Capability
imageOf(uint32_t meta, uint32_t address, bool tag = true)
{
    return Capability::fromBits((uint64_t{meta} << 32) | address, tag);
}

/** withAddress as the architecture states it: replace the address,
 * and untag a sealed capability or one whose bounds decode
 * differently at the new address. */
struct ReferenceMove
{
    bool tag;
    uint64_t bits;
    DecodedBounds bounds;
};

ReferenceMove
referenceWithAddress(const Capability &c, uint32_t newAddress)
{
    const EncodedBounds &enc = c.encodedBounds();
    ReferenceMove out;
    out.tag = c.tag() && !c.isSealed() &&
              addressPreservesBounds(enc, c.address(), newAddress);
    out.bits = (c.toBits() & ~kAddressMask) | newAddress;
    out.bounds = decodeBounds(enc, newAddress);
    return out;
}

TEST(DecodedForm, CachedBoundsMatchDecodeAtInWindowAddresses)
{
    // Every (E, B, T) at the structured address samples above: the
    // cached base and top equal decodeBounds at the address, and stay
    // equal when withAddress moves to either end of the window
    // [base, base + 2^(e+9)), where it keeps the cache undecoded.
    uint64_t checked = 0;
    uint64_t mismatches = 0;
    std::string firstMismatch;
    const auto check = [&](const Capability &c) {
        const DecodedBounds d = decodeBounds(c.encodedBounds(), c.address());
        ++checked;
        if ((c.base() != d.base || c.top() != d.top) && mismatches++ == 0) {
            firstMismatch = c.toString();
        }
    };
    for (uint32_t eField = 0; eField <= 0xf; ++eField) {
        const unsigned e = effectiveExponent(static_cast<uint8_t>(eField));
        const uint64_t span = representableSpan(static_cast<uint8_t>(eField));
        for (uint32_t b9 = 0; b9 < 512; ++b9) {
            for (uint32_t t9 = 0; t9 < 512; ++t9) {
                const uint32_t meta = (eField << 18) | (b9 << 9) | t9;
                for (const uint64_t addrSeed :
                     {uint64_t{0}, uint64_t{1} << (e + 3),
                      uint64_t{0x20004000}, uint64_t{0xfffffff8},
                      (uint64_t{b9} << e) + (uint64_t{3} << (e + 9))}) {
                    const Capability c =
                        imageOf(meta, static_cast<uint32_t>(addrSeed));
                    check(c);
                    if (c.address() < c.base()) {
                        continue; // Wrapped base: withAddress decodes.
                    }
                    for (const uint64_t offset : {uint64_t{0}, span - 1}) {
                        const uint64_t to = c.base() + offset;
                        if (to <= kAddressMask) {
                            check(c.withAddress(static_cast<uint32_t>(to)));
                        }
                    }
                }
            }
        }
    }
    EXPECT_EQ(mismatches, 0u) << "first: " << firstMismatch;
    EXPECT_GT(checked, uint64_t{16} * 512 * 512 * 5);
}

TEST(DecodedForm, EveryAddressInsideTheBoundsKeepsTheWindow)
{
    // What lets the run loop move PCC by a plain store inside a block
    // (DESIGN.md §16.4): decoded at an address inside its bounds, every
    // (E, B, T) has top - base < representableSpan(E), so a tagged,
    // unsealed capability moved to any address in [base, top] keeps
    // its tag and bounds. Each encoding is decoded at its base (B in
    // the address's mid bits, in a seeded region) and at two seeded
    // addresses; a seeded unsealed image at its base then moves to
    // base, top (when it is an address) and a seeded address between.
    Rng rng(0xb0a7d5);
    uint64_t inside = 0;
    uint64_t moves = 0;
    uint64_t failures = 0;
    std::string firstFailure;
    const auto fail = [&](const std::string &what) {
        if (failures++ == 0) {
            firstFailure = what;
        }
    };
    for (uint32_t eField = 0; eField <= 0xf; ++eField) {
        const unsigned e = effectiveExponent(static_cast<uint8_t>(eField));
        const uint64_t span = representableSpan(static_cast<uint8_t>(eField));
        const uint32_t regions =
            e + 9 >= 32 ? 1 : uint32_t{1} << (32 - e - 9);
        for (uint32_t b9 = 0; b9 < 512; ++b9) {
            for (uint32_t t9 = 0; t9 < 512; ++t9) {
                const EncodedBounds encoded{static_cast<uint8_t>(eField),
                                            static_cast<uint16_t>(b9),
                                            static_cast<uint16_t>(t9)};
                const uint64_t atBase =
                    (uint64_t{rng.below(regions)} << (e + 9)) +
                    (uint64_t{b9} << e);
                for (const uint64_t a :
                     {atBase, uint64_t{rng.next()}, uint64_t{rng.next()}}) {
                    if (a > kAddressMask) {
                        continue;
                    }
                    const DecodedBounds d =
                        decodeBounds(encoded, static_cast<uint32_t>(a));
                    if (a < d.base || a > d.top) {
                        continue;
                    }
                    ++inside;
                    if (d.top - d.base >= span) {
                        fail(Capability::fromBits(
                                 (uint64_t{(eField << 18) | (b9 << 9) |
                                           t9}
                                  << 32) | a,
                                 false)
                                 .toString());
                    }
                }
                if (atBase > kAddressMask) {
                    continue;
                }
                const uint32_t perms = rng.below(64) << 25;
                const Capability c = imageOf(
                    perms | (eField << 18) | (b9 << 9) | t9,
                    static_cast<uint32_t>(atBase));
                if (c.address() != c.base() || c.top() < c.base()) {
                    continue; // Not inside its own bounds.
                }
                const uint64_t length = c.top() - c.base();
                for (const uint64_t to :
                     {uint64_t{c.base()}, c.top(),
                      c.base() + (length == 0 ? 0
                                              : rng.next64() % length)}) {
                    if (to > kAddressMask) {
                        continue;
                    }
                    const Capability moved =
                        c.withAddress(static_cast<uint32_t>(to));
                    ++moves;
                    if (!moved.tag() || moved.base() != c.base() ||
                        moved.top() != c.top() ||
                        !(moved.encodedBounds() == c.encodedBounds())) {
                        fail(c.toString() + " -> " + std::to_string(to));
                    }
                }
            }
        }
    }
    EXPECT_EQ(failures, 0u) << "first: " << firstFailure;
    EXPECT_GT(inside, uint64_t{16} * 512 * 512);
    EXPECT_GT(moves, uint64_t{16} * 512 * 512 * 2);
}

TEST(DecodedForm, EveryPermissionFieldRoundTripsExactly)
{
    // Field-level, not set-level: compress(decompress(f)) == f for all
    // 64 fields. attenuateForLoad relies on it to skip re-compression
    // when no permission changes.
    for (uint32_t field = 0; field < 64; ++field) {
        const PermSet perms = decompressPerms(static_cast<uint8_t>(field));
        EXPECT_EQ(compressPerms(perms), field) << permsToString(perms);
        const Capability c = imageOf(field << 25, 0x20000000);
        EXPECT_EQ(c.permsField(), field);
        EXPECT_EQ(c.perms(), perms) << "field " << field;
    }
}

TEST(DecodedForm, AttenuationMatchesRecompressionForEveryField)
{
    for (uint32_t field = 0; field < 64; ++field) {
        const Capability c = imageOf(field << 25, 0x20000000);
        for (const uint16_t authority :
             {uint16_t{0}, uint16_t{PermLoadGlobal},
              uint16_t{PermLoadMutable},
              uint16_t{PermLoadGlobal | PermLoadMutable}}) {
            PermSet expected = c.perms();
            if (!(authority & PermLoadGlobal)) {
                expected = expected.without(PermGlobal | PermLoadGlobal);
            }
            if (!(authority & PermLoadMutable) &&
                !expected.has(PermExecute)) {
                expected = expected.without(PermStore | PermLoadMutable);
            }
            const uint8_t expectedField = compressPerms(expected);
            Capability loaded = c;
            loaded.attenuateForLoad(PermSet(authority));
            EXPECT_EQ(loaded.permsField(), expectedField)
                << "field " << field << " authority " << authority;
            EXPECT_EQ(loaded.perms(), decompressPerms(expectedField));
            EXPECT_TRUE(loaded.tag());
        }
    }
}

TEST(DecodedForm, WithAddressMatchesTheReferenceEverywhere)
{
    // Random images (mostly unsealed, so the tag rule is exercised),
    // images near the top of the address space whose windows cross
    // 2^32, images whose base wraps past zero, and bounded
    // capabilities from the encoder; each moved to seeded addresses
    // and to the window's edges.
    Rng rng(0xadd5e55);
    std::vector<Capability> caps;
    for (int i = 0; i < 3000; ++i) {
        uint32_t meta = rng.next();
        if (!rng.chance(1, 4)) {
            meta &= ~(uint32_t{7} << 22); // Unsealed.
        }
        const uint32_t address =
            rng.chance(1, 3) ? 0xffffffffu - rng.below(1u << 24) : rng.next();
        caps.push_back(imageOf(meta, address));
    }
    for (int i = 0; i < 1000; ++i) {
        // An address below B << e decodes a base that wraps past zero:
        // the decoded base lies above the address.
        const uint32_t meta = rng.next() & ~(uint32_t{7} << 22);
        const EncodedBounds enc = imageOf(meta, 0).encodedBounds();
        const uint64_t below = uint64_t{enc.base9}
                               << effectiveExponent(enc.exponent);
        caps.push_back(imageOf(
            meta, below == 0 ? 0
                             : rng.below(static_cast<uint32_t>(
                                   std::min(below, kAddressMask)))));
    }
    for (int i = 0; i < 1000; ++i) {
        const uint32_t base = rng.chance(1, 2)
                                  ? 0xffffffffu - rng.below(1u << 26)
                                  : rng.next();
        const uint64_t room = (uint64_t{1} << 32) - base;
        const uint64_t length = 1 + rng.below(static_cast<uint32_t>(
                                        std::min<uint64_t>(room, 1u << 30)));
        caps.push_back(
            Capability::memoryRoot().withAddress(base).withBounds(length));
    }
    caps.push_back(Capability::memoryRoot());
    caps.push_back(Capability::sealingRoot());
    caps.push_back(Capability());

    uint64_t compared = 0;
    for (const Capability &c : caps) {
        const uint64_t span = representableSpan(c.encodedBounds().exponent);
        std::vector<uint32_t> targets = {0u, 0xffffffffu, c.address()};
        for (const uint64_t edge :
             {uint64_t{c.base()} - 1, uint64_t{c.base()},
              uint64_t{c.base()} + span - 1, uint64_t{c.base()} + span}) {
            targets.push_back(static_cast<uint32_t>(edge));
        }
        for (int i = 0; i < 8; ++i) {
            targets.push_back(rng.next());
            targets.push_back(c.address() + rng.below(1u << 12) - (1u << 11));
        }
        for (const uint32_t to : targets) {
            const ReferenceMove want = referenceWithAddress(c, to);
            const Capability got = c.withAddress(to);
            ASSERT_EQ(got.tag(), want.tag) << c.toString() << " -> " << to;
            ASSERT_EQ(got.toBits(), want.bits) << c.toString();
            ASSERT_EQ(got.base(), want.bounds.base) << c.toString();
            ASSERT_EQ(got.top(), want.bounds.top) << c.toString();
            ASSERT_EQ(got.perms(), c.perms());
            ++compared;
        }
    }
    EXPECT_EQ(compared, caps.size() * 23);
}

TEST(DecodedForm, FromBitsRestoresTheCachedFields)
{
    Rng rng(0xf20b175);
    std::vector<Capability> caps = {
        Capability(), Capability::memoryRoot(),
        Capability::executableRoot(), Capability::sealingRoot(),
        Capability::memoryRoot().withAddress(0x20001000).withBounds(4000)};
    for (int i = 0; i < 2000; ++i) {
        const uint32_t value = rng.next();
        // An integer result carries null bounds in closed form.
        const Capability integer = Capability::fromInteger(value);
        const Capability moved = Capability().withAddress(value);
        ASSERT_EQ(integer, moved);
        ASSERT_EQ(integer.base(), moved.base()) << value;
        ASSERT_EQ(integer.top(), moved.top()) << value;
        ASSERT_EQ(integer.perms(), moved.perms());
        caps.push_back(integer);
        caps.push_back(imageOf(rng.next(), rng.next(), rng.chance(1, 2)));
    }
    for (const Capability &c : caps) {
        const Capability back = Capability::fromBits(c.toBits(), c.tag());
        ASSERT_EQ(back, c);
        ASSERT_EQ(back.base(), c.base()) << c.toString();
        ASSERT_EQ(back.top(), c.top()) << c.toString();
        ASSERT_EQ(back.perms(), c.perms()) << c.toString();
    }
}

} // namespace
} // namespace cheriot::cap
