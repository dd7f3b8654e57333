#include "cap/bounds.h"

#include "util/bits.h"
#include "util/log.h"

namespace cheriot::cap
{

namespace
{

constexpr uint64_t kTopMask = (uint64_t{1} << 33) - 1;
constexpr unsigned kMantissaBits = 9;
constexpr uint64_t kMaxSpan = (uint64_t{1} << kMantissaBits) - 1; // 511

/**
 * The exponent after @p e. Exponents 15..23 are not encodable (E is
 * four bits with 0xF meaning 24), so the search jumps from 14 straight
 * to 24.
 */
unsigned
nextExponent(unsigned e)
{
    return e == kMaxDirectExponent ? kEscapeExponent : e + 1;
}

/** The smallest exponent whose 511 granules hold @p length bytes. */
unsigned
lengthExponent(uint64_t length)
{
    unsigned e = 0;
    while (alignUp<uint64_t>(length, uint64_t{1} << e) >> e > kMaxSpan) {
        e = nextExponent(e);
    }
    return e;
}

} // namespace

DecodedBounds
decodeBounds(const EncodedBounds &encoded, uint32_t address)
{
    const unsigned e = effectiveExponent(encoded.exponent);
    const uint64_t a = address;
    const int64_t atop = static_cast<int64_t>(a >> (e + kMantissaBits));
    const uint32_t amid =
        static_cast<uint32_t>((a >> e) & kMaxSpan);

    const int64_t cb = amid < encoded.base9 ? -1 : 0;
    const int64_t ct = cb + (encoded.top9 < encoded.base9 ? 1 : 0);

    const int64_t regionShift = e + kMantissaBits;
    const int64_t base64 = ((atop + cb) << regionShift) +
                           (static_cast<int64_t>(encoded.base9) << e);
    const int64_t top64 = ((atop + ct) << regionShift) +
                          (static_cast<int64_t>(encoded.top9) << e);

    DecodedBounds out;
    out.base = static_cast<uint32_t>(base64);
    out.top = static_cast<uint64_t>(top64) & kTopMask;
    return out;
}

BoundsEncodeResult
encodeBounds(uint32_t requestedBase, uint64_t requestedLength)
{
    if (requestedLength > (uint64_t{1} << 32)) {
        panic("encodeBounds: length %llu exceeds the address space",
              static_cast<unsigned long long>(requestedLength));
    }
    const uint64_t requestedTop = requestedBase + requestedLength;
    if (requestedTop > (uint64_t{1} << 32)) {
        panic("encodeBounds: window [0x%08x, 0x%llx) wraps the address space",
              requestedBase,
              static_cast<unsigned long long>(requestedTop));
    }

    // The aligned window is at least the length rounded up to the
    // granule, so no exponent below lengthExponent can hold it.
    unsigned e = lengthExponent(requestedLength);
    uint64_t alignedBase = 0;
    uint64_t alignedTop = 0;
    for (;;) {
        const uint64_t granule = uint64_t{1} << e;
        alignedBase = alignDown<uint64_t>(requestedBase, granule);
        alignedTop = alignUp<uint64_t>(requestedTop, granule);
        if (((alignedTop - alignedBase) >> e) <= kMaxSpan) {
            break;
        }
        e = nextExponent(e);
    }

    BoundsEncodeResult result;
    result.encoded.exponent =
        e == kEscapeExponent ? 0xf : static_cast<uint8_t>(e);
    result.encoded.base9 =
        static_cast<uint16_t>((alignedBase >> e) & kMaxSpan);
    result.encoded.top9 = static_cast<uint16_t>((alignedTop >> e) & kMaxSpan);
    result.decoded = decodeBounds(result.encoded, requestedBase);
    result.exact = result.decoded.base == requestedBase &&
                   result.decoded.top == requestedTop;

    // The decode must reproduce the aligned window; anything else is a
    // codec bug, not a representability limitation.
    if (result.decoded.base != alignedBase || result.decoded.top != alignedTop) {
        panic("encodeBounds: decode mismatch for [0x%08x, +%llu): "
              "aligned [0x%llx, 0x%llx) decoded [0x%08x, 0x%llx) e=%u",
              requestedBase,
              static_cast<unsigned long long>(requestedLength),
              static_cast<unsigned long long>(alignedBase),
              static_cast<unsigned long long>(alignedTop),
              result.decoded.base,
              static_cast<unsigned long long>(result.decoded.top), e);
    }
    return result;
}

bool
addressPreservesBounds(const EncodedBounds &encoded, uint32_t oldAddress,
                       uint32_t newAddress)
{
    return decodeBounds(encoded, oldAddress) ==
           decodeBounds(encoded, newAddress);
}

uint64_t
representableLength(uint64_t length)
{
    return alignUp<uint64_t>(length, uint64_t{1} << lengthExponent(length));
}

uint32_t
representableAlignmentMask(uint64_t length)
{
    const uint64_t granule = uint64_t{1} << lengthExponent(length);
    return static_cast<uint32_t>(~(granule - 1));
}

} // namespace cheriot::cap
