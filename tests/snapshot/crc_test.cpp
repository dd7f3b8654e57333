/**
 * @file
 * The snapshot CRC-32: both bulk paths (crc32, which folds by
 * carry-less multiplication where the host CPU allows, and the
 * slicing-by-8 crc32Slicing that is the whole CRC elsewhere) against
 * a bytewise reference kept here, at every short length and offset,
 * on random unaligned buffers and long ones, with random seeds, plus
 * the standard check value; and crc32Combine against the CRC of the
 * concatenation.
 */

#include "snapshot/serializer.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace cheriot::snapshot
{
namespace
{

/** The textbook bitwise reflected CRC-32 (polynomial 0xedb88320). */
uint32_t
referenceCrc32(const uint8_t *data, size_t size, uint32_t seed)
{
    uint32_t c = seed ^ 0xffffffffu;
    for (size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
    }
    return c ^ 0xffffffffu;
}

/** The two bulk paths, each checked on its own. */
using CrcPath = uint32_t (*)(const uint8_t *, size_t, uint32_t);
const std::pair<const char *, CrcPath> kCrcPaths[] = {
    {"crc32", &crc32},
    {"crc32Slicing", &crc32Slicing},
};

std::vector<uint8_t>
randomBytes(Rng &rng, size_t size)
{
    std::vector<uint8_t> bytes(size);
    for (uint8_t &byte : bytes) {
        byte = static_cast<uint8_t>(rng.next());
    }
    return bytes;
}

TEST(Crc32, StandardCheckValue)
{
    const char *check = "123456789";
    for (const auto &[name, path] : kCrcPaths) {
        SCOPED_TRACE(name);
        EXPECT_EQ(path(reinterpret_cast<const uint8_t *>(check),
                       std::strlen(check), 0),
                  0xcbf43926u);
        EXPECT_EQ(path(nullptr, 0, 0), 0u);
    }
}

TEST(Crc32, SlicingMatchesBytewiseOnRandomUnalignedBuffers)
{
    Rng rng(0xc4c32);
    std::vector<uint8_t> storage(4096 + 8);
    for (int trial = 0; trial < 500; ++trial) {
        const uint32_t offset = rng.below(8);
        const uint32_t size = rng.below(4097);
        for (uint32_t i = 0; i < size; ++i) {
            storage[offset + i] = static_cast<uint8_t>(rng.next());
        }
        const uint32_t seed = rng.chance(1, 4) ? 0 : rng.next();
        const uint8_t *data = storage.data() + offset;
        const uint32_t want = referenceCrc32(data, size, seed);
        for (const auto &[name, path] : kCrcPaths) {
            ASSERT_EQ(path(data, size, seed), want)
                << name << " offset " << offset << " size " << size
                << " seed " << seed;
        }
    }
}

TEST(Crc32, BothPathsMatchBytewiseAtEveryShortLengthAndOffset)
{
    // Every length through the carry-less path's 64-byte minimum, its
    // 16-byte tail and its 64-byte main loop, at every 16-byte offset.
    Rng rng(0xc1a55);
    const std::vector<uint8_t> storage = randomBytes(rng, 1024 + 16);
    for (uint32_t size = 0; size <= 1024; ++size) {
        for (uint32_t offset = 0; offset < 16; ++offset) {
            const uint8_t *data = storage.data() + offset;
            const uint32_t seed = rng.next();
            const uint32_t want = referenceCrc32(data, size, seed);
            for (const auto &[name, path] : kCrcPaths) {
                ASSERT_EQ(path(data, size, seed), want)
                    << name << " size " << size << " offset " << offset;
            }
        }
    }
}

TEST(Crc32, BothPathsMatchBytewiseOnLongBuffers)
{
    Rng rng(0x10c6);
    for (const size_t size : {size_t{65535}, size_t{65536}, size_t{65537},
                              size_t{262149}}) {
        const std::vector<uint8_t> data = randomBytes(rng, size + 3);
        const uint32_t seed = rng.next();
        const uint32_t want = referenceCrc32(data.data() + 3, size, seed);
        for (const auto &[name, path] : kCrcPaths) {
            EXPECT_EQ(path(data.data() + 3, size, seed), want)
                << name << " size " << size;
        }
    }
}

TEST(Crc32, SeedContinuesAcrossSplits)
{
    Rng rng(77);
    std::vector<uint8_t> data(1000);
    for (uint8_t &byte : data) {
        byte = static_cast<uint8_t>(rng.next());
    }
    const uint32_t whole = crc32(data.data(), data.size());
    for (size_t split : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
        EXPECT_EQ(crc32(data.data() + split, data.size() - split,
                        crc32(data.data(), split)),
                  whole)
            << "split " << split;
    }
}

TEST(Crc32, CombineEqualsTheCrcOfTheConcatenation)
{
    Rng rng(0xc0b1);
    std::vector<uint8_t> data(300'000);
    for (uint8_t &byte : data) {
        byte = static_cast<uint8_t>(rng.next());
    }
    const auto expectCombines = [&](size_t begin, size_t split,
                                    size_t end) {
        const uint8_t *p = data.data();
        EXPECT_EQ(crc32Combine(crc32(p + begin, split - begin),
                               crc32(p + split, end - split), end - split),
                  crc32(p + begin, end - begin))
            << "[" << begin << ", " << split << ", " << end << ")";
    };
    // Empty parts, and parts past 2^16 and 2^18 bytes.
    expectCombines(0, 0, 0);
    expectCombines(0, 0, 1000);
    expectCombines(0, 1000, 1000);
    expectCombines(5, 70'000, 300'000);
    expectCombines(0, 1, 262'145);
    for (int trial = 0; trial < 200; ++trial) {
        const size_t begin = rng.below(1000);
        const size_t end =
            begin + rng.below(static_cast<uint32_t>(data.size() - begin));
        const size_t split =
            begin + rng.below(static_cast<uint32_t>(end - begin + 1));
        expectCombines(begin, split, end);
    }
}

} // namespace
} // namespace cheriot::snapshot
