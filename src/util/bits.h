/**
 * @file
 * Bit-manipulation helpers used throughout the CHERIoT model.
 *
 * These mirror the small utility layer every hardware model needs:
 * field extraction/insertion, sign extension, alignment, and population
 * counts, all constexpr so the capability codec can be evaluated at
 * compile time in tests.
 */

#ifndef CHERIOT_UTIL_BITS_H
#define CHERIOT_UTIL_BITS_H

#include <bit>
#include <cstdint>
#include <type_traits>

namespace cheriot
{

/** Extract bits [lo, lo+width) of @p value. */
template <typename T>
constexpr T
bits(T value, unsigned lo, unsigned width)
{
    static_assert(std::is_unsigned_v<T>, "bits() requires unsigned types");
    if (width >= sizeof(T) * 8) {
        return value >> lo;
    }
    return (value >> lo) & ((T{1} << width) - 1);
}

/** Extract a single bit of @p value. */
template <typename T>
constexpr bool
bit(T value, unsigned index)
{
    return ((value >> index) & T{1}) != 0;
}

/** Return @p value with bits [lo, lo+width) replaced by @p field. */
template <typename T>
constexpr T
insertBits(T value, unsigned lo, unsigned width, T field)
{
    const T mask = width >= sizeof(T) * 8 ? ~T{0} : ((T{1} << width) - 1);
    return (value & ~(mask << lo)) | ((field & mask) << lo);
}

/** Sign-extend the low @p width bits of @p value to 32 bits. */
constexpr int32_t
signExtend32(uint32_t value, unsigned width)
{
    const unsigned shift = 32 - width;
    return static_cast<int32_t>(value << shift) >> shift;
}

/** Round @p value down to a multiple of @p align (a power of two). */
template <typename T>
constexpr T
alignDown(T value, T align)
{
    return value & ~(align - 1);
}

/** Round @p value up to a multiple of @p align (a power of two). */
template <typename T>
constexpr T
alignUp(T value, T align)
{
    return (value + align - 1) & ~(align - 1);
}

/** True iff @p value is a power of two (zero is not). */
template <typename T>
constexpr bool
isPowerOfTwo(T value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** Number of bits needed to represent @p value (0 needs 0 bits). */
constexpr unsigned
bitWidth(uint64_t value)
{
    unsigned width = 0;
    while (value != 0) {
        ++width;
        value >>= 1;
    }
    return width;
}

/** Count of set bits. */
constexpr unsigned
popcount(uint64_t value)
{
    return static_cast<unsigned>(std::popcount(value));
}

/**
 * A 32-bit avalanche mix: two multiply-xorshift rounds, so a one-bit
 * change in @p x flips about half the result. The canaries over flow,
 * broker and object-capability entries are built from it.
 */
constexpr uint32_t
mix32(uint32_t x)
{
    x ^= x >> 16;
    x *= 0x7feb352du;
    x ^= x >> 15;
    x *= 0x846ca68bu;
    x ^= x >> 16;
    return x;
}

/** The SplitMix64 finaliser: a bijective 64-bit avalanche mix. */
constexpr uint64_t
splitMix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace cheriot

#endif // CHERIOT_UTIL_BITS_H
