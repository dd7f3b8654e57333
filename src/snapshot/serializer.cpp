#include "snapshot/serializer.h"

#include <array>
#include <cstring>

namespace cheriot::snapshot
{

namespace
{

/**
 * Slicing-by-8 tables: table[0] is the bytewise reflected CRC-32
 * table; table[k][i] is the CRC of byte i followed by k zero bytes,
 * so eight table lookups fold one 64-bit chunk into the register.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables
buildCrcTables()
{
    CrcTables tables{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        }
        tables[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
        for (size_t k = 1; k < tables.size(); ++k) {
            const uint32_t prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
        }
    }
    return tables;
}

uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t size, uint32_t seed)
{
    static const CrcTables t = buildCrcTables();
    uint32_t c = seed ^ 0xffffffffu;
    for (; size >= 8; data += 8, size -= 8) {
        const uint32_t lo = loadLe32(data) ^ c;
        const uint32_t hi = loadLe32(data + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size) {
        c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
    }
    return c ^ 0xffffffffu;
}

namespace
{

/** a(x) * b(x) modulo the CRC polynomial, both reflected (bit 31 is
 * the coefficient of x^0). */
uint32_t
multiplyModPoly(uint32_t a, uint32_t b)
{
    uint32_t product = 0;
    for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if ((a & m) != 0) {
            product ^= b;
        }
        b = (b & 1) ? 0xedb88320u ^ (b >> 1) : b >> 1;
    }
    return product;
}

} // namespace

uint32_t
crc32Combine(uint32_t crcA, uint32_t crcB, size_t lengthB)
{
    // x^(8 * lengthB) is the product of x^(8 * 2^k) over the set bits
    // k of lengthB; each square comes from the one before it.
    uint32_t shift = 1u << 31; // x^0
    for (uint32_t square = 1u << 23 /* x^8 */; lengthB != 0;
         lengthB >>= 1, square = multiplyModPoly(square, square)) {
        if ((lengthB & 1) != 0) {
            shift = multiplyModPoly(square, shift);
        }
    }
    return multiplyModPoly(shift, crcA) ^ crcB;
}

void
Writer::put(uint64_t bits, size_t size)
{
    for (size_t i = 0; i < size; ++i) {
        buffer_.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
}

void
Writer::bytes(const uint8_t *data, size_t size)
{
    buffer_.insert(buffer_.end(), data, data + size);
}

void
Writer::str(const std::string &value)
{
    u32(value.size());
    bytes(reinterpret_cast<const uint8_t *>(value.data()), value.size());
}

void
Writer::blob(const std::vector<uint8_t> &value)
{
    u32(value.size());
    bytes(value.data(), value.size());
}

bool
Reader::take(size_t count)
{
    if (!ok_ || size_ - offset_ < count) {
        ok_ = false;
        return false;
    }
    return true;
}

uint8_t
Reader::u8()
{
    if (!take(1)) {
        return 0;
    }
    return data_[offset_++];
}

uint16_t
Reader::u16()
{
    const uint16_t lo = u8();
    const uint16_t hi = u8();
    return static_cast<uint16_t>(lo | (hi << 8));
}

uint32_t
Reader::u32()
{
    const uint32_t lo = u16();
    const uint32_t hi = u16();
    return lo | (hi << 16);
}

uint64_t
Reader::u64()
{
    const uint64_t lo = u32();
    const uint64_t hi = u32();
    return lo | (hi << 32);
}

void
Reader::bytes(uint8_t *out, size_t size)
{
    if (!take(size)) {
        return;
    }
    std::memcpy(out, data_ + offset_, size);
    offset_ += size;
}

void
Reader::skip(size_t size)
{
    if (take(size)) {
        offset_ += size;
    }
}

std::string
Reader::str()
{
    const uint32_t size = u32();
    if (!take(size)) {
        return {};
    }
    std::string value(reinterpret_cast<const char *>(data_ + offset_),
                      size);
    offset_ += size;
    return value;
}

void
Reader::blob(std::vector<uint8_t> &out)
{
    const uint32_t size = u32();
    if (!take(size)) {
        return;
    }
    out.assign(data_ + offset_, data_ + offset_ + size);
    offset_ += size;
}

} // namespace cheriot::snapshot
