/**
 * @file
 * The snapshot CRC-32: the slicing-by-8 implementation against a
 * bytewise reference kept here, on random unaligned buffers with
 * random seeds, plus the standard check value.
 */

#include "snapshot/serializer.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstring>
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

TEST(Crc32, StandardCheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(check),
                    std::strlen(check)),
              0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
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
        ASSERT_EQ(crc32(data, size, seed), referenceCrc32(data, size, seed))
            << "offset " << offset << " size " << size << " seed " << seed;
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

} // namespace
} // namespace cheriot::snapshot
