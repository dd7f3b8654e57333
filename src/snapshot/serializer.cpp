#include "snapshot/serializer.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

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

/** Slicing-by-8 over the CRC register @p c (the CRC inverted). */
uint32_t
slicingBy8(const uint8_t *data, size_t size, uint32_t c)
{
    static const CrcTables t = buildCrcTables();
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
    return c;
}

#if defined(__x86_64__) && defined(__GNUC__)

#define CHERIOT_CLMUL __attribute__((target("pclmul,sse4.1")))

CHERIOT_CLMUL __m128i
load128(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** Fold the 128 bits of @p x forward by the constant pair @p k (its
 * low half multiplies x's low half, its high half the high half) onto
 * @p next, the 128 bits that follow. */
CHERIOT_CLMUL __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/**
 * The CRC register @p c after @p size bytes (at least 64, a multiple
 * of 16), by carry-less multiplication (Gopal et al., "Fast CRC
 * Computation for Generic Polynomials Using PCLMULQDQ Instruction",
 * Intel, 2009): four 128-bit lanes fold 64 bytes per step, the lanes
 * and any 16-byte blocks left fold into one, then 128 bits fold to 64
 * and a Barrett reduction leaves 32. The constants are the paper's
 * for the reflected IEEE polynomial: k1-k5 are powers of x modulo P,
 * P' is P and mu is x^64 / P.
 */
CHERIOT_CLMUL uint32_t
foldByClmul(const uint8_t *data, size_t size, uint32_t c)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641 /* mu */,
                                        0x01db710641 /* P' */);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x0 = _mm_xor_si128(load128(data),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x1 = load128(data + 16);
    __m128i x2 = load128(data + 32);
    __m128i x3 = load128(data + 48);
    for (data += 64, size -= 64; size >= 64; data += 64, size -= 64) {
        x0 = fold(x0, k1k2, load128(data));
        x1 = fold(x1, k1k2, load128(data + 16));
        x2 = fold(x2, k1k2, load128(data + 32));
        x3 = fold(x3, k1k2, load128(data + 48));
    }
    x0 = fold(x0, k3k4, x1);
    x0 = fold(x0, k3k4, x2);
    x0 = fold(x0, k3k4, x3);
    for (; size >= 16; data += 16, size -= 16) {
        x0 = fold(x0, k3k4, load128(data));
    }

    // 128 -> 64 bits, then the low 32 of those by k5.
    x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                       _mm_clmulepi64_si128(x0, k3k4, 0x10));
    x0 = _mm_xor_si128(
        _mm_srli_si128(x0, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
    // Barrett: q = floor(r * mu), r - q * P'.
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
    q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
    return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

#undef CHERIOT_CLMUL

bool
hostHasClmul()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
}

#endif

} // namespace

uint32_t
crc32(const uint8_t *data, size_t size, uint32_t seed)
{
    uint32_t c = seed ^ 0xffffffffu;
#if defined(__x86_64__) && defined(__GNUC__)
    static const bool clmul = hostHasClmul();
    if (clmul && size >= 64) {
        const size_t bulk = size & ~size_t{15};
        c = foldByClmul(data, bulk, c);
        data += bulk;
        size -= bulk;
    }
#endif
    return slicingBy8(data, size, c) ^ 0xffffffffu;
}

uint32_t
crc32Slicing(const uint8_t *data, size_t size, uint32_t seed)
{
    return slicingBy8(data, size, seed ^ 0xffffffffu) ^ 0xffffffffu;
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
