/**
 * @file
 * Tests for the 6-bit compressed permission encoding (paper §3.2.1,
 * Fig. 2): round-trips, monotonicity of compression, W^X by
 * construction, and the format-transition behaviour of CAndPerm.
 */

#include "cap/permissions.h"
#include "snapshot/serializer.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace cheriot::cap
{
namespace
{

TEST(Permissions, EveryEncodingRoundTrips)
{
    // decompress → compress must reproduce every canonical encoding's
    // permission set (encodings are not necessarily unique, but the
    // set must survive).
    for (unsigned encoded = 0; encoded < 64; ++encoded) {
        const PermSet perms = decompressPerms(static_cast<uint8_t>(encoded));
        const uint8_t re = compressPerms(perms);
        EXPECT_EQ(decompressPerms(re), perms)
            << "encoding " << encoded << " -> " << permsToString(perms);
    }
}

TEST(Permissions, CompressionIsMonotone)
{
    // For every one of the 4096 permission subsets, the encoded set
    // is a subset of the request: compression never grants authority.
    for (uint32_t mask = 0; mask < 4096; ++mask) {
        const PermSet requested(static_cast<uint16_t>(mask));
        const PermSet encoded = decompressPerms(compressPerms(requested));
        EXPECT_TRUE(encoded.subsetOf(requested))
            << permsToString(requested) << " encoded as "
            << permsToString(encoded);
    }
}

TEST(Permissions, RepresentableSetsAreFixedPoints)
{
    for (uint32_t mask = 0; mask < 4096; ++mask) {
        const PermSet perms(static_cast<uint16_t>(mask));
        if (isRepresentablePerms(perms)) {
            EXPECT_EQ(decompressPerms(compressPerms(perms)), perms);
        }
    }
}

TEST(Permissions, WriteXorExecuteByConstruction)
{
    // No encoding grants both execute and store (§3.1.1).
    for (unsigned encoded = 0; encoded < 64; ++encoded) {
        const PermSet perms = decompressPerms(static_cast<uint8_t>(encoded));
        EXPECT_FALSE(perms.has(PermExecute) && perms.has(PermStore))
            << "encoding " << encoded << " violates W^X: "
            << permsToString(perms);
    }
}

TEST(Permissions, SealingSeparateFromMemory)
{
    // No encoding mixes seal/unseal authority with memory access.
    for (unsigned encoded = 0; encoded < 64; ++encoded) {
        const PermSet perms = decompressPerms(static_cast<uint8_t>(encoded));
        const bool sealing = perms.hasAny(PermSeal | PermUnseal | PermUser0);
        const bool memory =
            perms.hasAny(PermLoad | PermStore | PermMemCap | PermExecute);
        EXPECT_FALSE(sealing && memory)
            << "encoding " << encoded << ": " << permsToString(perms);
    }
}

TEST(Permissions, FormatExamples)
{
    // The six formats of Fig. 2, by example.
    const PermSet rw(PermGlobal | PermLoad | PermStore | PermMemCap |
                     PermStoreLocal | PermLoadMutable | PermLoadGlobal);
    EXPECT_EQ(formatOf(compressPerms(rw)), PermFormat::MemCapRW);

    const PermSet ro(PermLoad | PermMemCap | PermLoadGlobal);
    EXPECT_EQ(formatOf(compressPerms(ro)), PermFormat::MemCapRO);

    const PermSet wo(PermStore | PermMemCap);
    EXPECT_EQ(formatOf(compressPerms(wo)), PermFormat::MemCapWO);

    const PermSet dataOnly(PermLoad | PermStore);
    EXPECT_EQ(formatOf(compressPerms(dataOnly)), PermFormat::MemDataOnly);

    const PermSet exec(PermExecute | PermLoad | PermMemCap |
                       PermSystemRegs);
    EXPECT_EQ(formatOf(compressPerms(exec)), PermFormat::Executable);

    const PermSet sealing(PermSeal | PermUnseal);
    EXPECT_EQ(formatOf(compressPerms(sealing)), PermFormat::Sealing);
}

TEST(Permissions, ClearingMcDegradesToDataOnly)
{
    // Dropping MC from a read/write capability transitions to the
    // data-only format, keeping LD and SD.
    PermSet rw(PermGlobal | PermLoad | PermStore | PermMemCap |
               PermLoadMutable | PermLoadGlobal);
    PermSet requested = rw.without(PermMemCap);
    const PermSet result = decompressPerms(compressPerms(requested));
    EXPECT_TRUE(result.has(PermLoad | PermStore));
    EXPECT_FALSE(result.has(PermMemCap));
    // LM/LG are meaningless without MC and drop with it.
    EXPECT_FALSE(result.hasAny(PermLoadMutable | PermLoadGlobal));
    EXPECT_TRUE(result.has(PermGlobal));
}

TEST(Permissions, ClearingLoadFromExecutableDropsToNothingUseful)
{
    // Executable format implies LD and MC; removing LD leaves no
    // format able to express EX, so everything memory-ish drops.
    PermSet exec(PermExecute | PermLoad | PermMemCap);
    const PermSet result =
        decompressPerms(compressPerms(exec.without(PermLoad)));
    EXPECT_TRUE(result.subsetOf(exec));
    EXPECT_FALSE(result.has(PermExecute));
}

TEST(Permissions, GlobalIsOrthogonal)
{
    for (uint32_t mask = 0; mask < 4096; ++mask) {
        const PermSet withoutGl(
            static_cast<uint16_t>(mask & ~PermGlobal));
        const PermSet withGl(static_cast<uint16_t>(mask | PermGlobal));
        const PermSet encodedWithout =
            decompressPerms(compressPerms(withoutGl));
        const PermSet encodedWith = decompressPerms(compressPerms(withGl));
        EXPECT_EQ(encodedWith.without(PermGlobal), encodedWithout);
        EXPECT_TRUE(encodedWith.has(PermGlobal));
    }
}

TEST(Permissions, MostCommonlyClearedPermsAreLowBits)
{
    // §3.2.1: GL, LG, LM, SD occupy the lowest architectural bits so
    // clearing masks fit a compressed-instruction immediate.
    EXPECT_EQ(PermGlobal, 1u << 0);
    EXPECT_EQ(PermLoadGlobal, 1u << 1);
    EXPECT_EQ(PermLoadMutable, 1u << 2);
    EXPECT_EQ(PermStore, 1u << 3);
}

TEST(Permissions, CodecMatchesTheRecord)
{
    // The codec's whole truth table, as two CRC-32s. For each of the
    // 64 fields: the decoded mask as two little-endian bytes, then the
    // format as one byte. For each of the 4096 masks: the compressed
    // field, which pins the field that every set the encoding cannot
    // represent compresses to.
    std::vector<uint8_t> decoded;
    for (unsigned field = 0; field < 64; ++field) {
        const uint16_t mask =
            decompressPerms(static_cast<uint8_t>(field)).mask();
        decoded.push_back(static_cast<uint8_t>(mask));
        decoded.push_back(static_cast<uint8_t>(mask >> 8));
        decoded.push_back(
            static_cast<uint8_t>(formatOf(static_cast<uint8_t>(field))));
    }
    EXPECT_EQ(snapshot::crc32(decoded.data(), decoded.size()), 0x8d78e79cu);

    std::vector<uint8_t> compressed;
    for (uint32_t mask = 0; mask < 4096; ++mask) {
        compressed.push_back(
            compressPerms(PermSet(static_cast<uint16_t>(mask))));
    }
    EXPECT_EQ(snapshot::crc32(compressed.data(), compressed.size()),
              0x14f31cbau);
}

TEST(Permissions, ToStringIsReadable)
{
    EXPECT_EQ(permsToString(PermSet(PermGlobal | PermLoad)), "GL LD");
    EXPECT_EQ(permsToString(PermSet(0)), "-");
}

} // namespace
} // namespace cheriot::cap
