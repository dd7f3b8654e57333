/**
 * @file
 * CHERIoT bounds encoding and decoding (paper §3.2.3, Fig. 3).
 *
 * Bounds are stored as 9-bit base (B) and top (T) fields plus a 4-bit
 * exponent (E), all relative to the capability's 32-bit address. The
 * decoded base and top are 2^e-aligned values reconstructed by
 * splicing B/T into the address at bit e, with small corrections (cb,
 * ct) when base/top land in a different 2^(e+9)-aligned region than
 * the address.
 *
 * E = 0xF denotes an exponent of 24 so a single capability can span
 * the whole 32-bit address space (the root capabilities); other E
 * values map directly. Objects up to 511 bytes are always precisely
 * representable; larger objects round to 2^e alignment, giving the
 * paper's ~0.19% average internal fragmentation (vs. 12.5% for the
 * 3-bit-precision encodings of prior 32-bit CHERI adaptations).
 *
 * Unlike CHERI Concentrate there is no guaranteed representable range
 * beyond the bounds: moving the address far enough that the decoded
 * bounds would change invalidates the capability.
 */

#ifndef CHERIOT_CAP_BOUNDS_H
#define CHERIOT_CAP_BOUNDS_H

#include <cstdint>

namespace cheriot::cap
{

/** Raw encoded bounds fields as stored in the capability word. */
struct EncodedBounds
{
    uint8_t exponent; ///< E field: 0..14 literal, 0xF means 24.
    uint16_t base9;   ///< B field, 9 bits.
    uint16_t top9;    ///< T field, 9 bits.

    constexpr bool operator==(const EncodedBounds &) const = default;
};

/** Decoded architectural bounds: [base, top), top may be 2^32. */
struct DecodedBounds
{
    uint32_t base;
    uint64_t top; ///< 33-bit value; top == 2^32 covers the full space.

    constexpr uint64_t length() const { return top - base; }
    constexpr bool operator==(const DecodedBounds &) const = default;
};

/** Result of a setBounds request. */
struct BoundsEncodeResult
{
    EncodedBounds encoded;
    DecodedBounds decoded; ///< What the encoding actually represents.
    bool exact;            ///< True iff decoded == requested.
};

/** Effective exponent for an E field value (0xF maps to 24). */
constexpr unsigned
effectiveExponent(uint8_t eField)
{
    return eField == 0xf ? 24 : eField;
}

/**
 * Width of the representable window for an E field. B and T are 9-bit
 * offsets in 2^e units, so every address in
 * [base, base + representableSpan(E)) decodes them to the same base
 * and top (for a base that did not wrap past zero).
 */
constexpr uint64_t
representableSpan(uint8_t eField)
{
    return uint64_t{1} << (effectiveExponent(eField) + 9);
}

/** Largest exponent directly encodable (besides the 0xF ⇒ 24 escape). */
constexpr unsigned kMaxDirectExponent = 14;

/** The escape exponent selected by E == 0xF. */
constexpr unsigned kEscapeExponent = 24;

/**
 * Decode bounds fields relative to @p address (Fig. 3).
 */
DecodedBounds decodeBounds(const EncodedBounds &encoded, uint32_t address);

/**
 * Encode the tightest representable bounds containing
 * [@p requestedBase, @p requestedBase + @p requestedLength).
 *
 * The result's decoded window always contains the request; `exact` is
 * false when alignment forced the window to grow. Lengths up to 2^32
 * are supported.
 */
BoundsEncodeResult encodeBounds(uint32_t requestedBase,
                                uint64_t requestedLength);

/**
 * Representable-limit check: true iff decoding @p encoded at
 * @p newAddress yields the same bounds as decoding at @p oldAddress.
 * Address updates that fail this check must clear the tag (§3.2.3).
 */
bool addressPreservesBounds(const EncodedBounds &encoded,
                            uint32_t oldAddress, uint32_t newAddress);

/**
 * CRRL: round @p length up to the next representable length (the
 * length malloc must actually reserve so bounds can be exact).
 */
uint64_t representableLength(uint64_t length);

/**
 * CRAM: alignment mask required for the base of an object of
 * @p length bytes to be exactly representable. The base must satisfy
 * (base & ~mask) == 0 ... i.e. base & representableAlignmentMask is
 * the aligned base.
 */
uint32_t representableAlignmentMask(uint64_t length);

} // namespace cheriot::cap

#endif // CHERIOT_CAP_BOUNDS_H
