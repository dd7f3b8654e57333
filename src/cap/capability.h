/**
 * @file
 * The CHERIoT architectural capability (paper Fig. 1).
 *
 * A capability is a 64-bit value — a 32-bit metadata word holding a
 * reserved bit, 6-bit compressed permissions, 3-bit otype and the
 * E/B/T bounds fields, plus a 32-bit address — guarded by an
 * out-of-band validity tag. All manipulation is *monotone*: bounds may
 * narrow but never widen or move, permissions may be shed but never
 * regained, and the tag may be cleared but never set. Operations that
 * would violate monotonicity or representability yield an untagged
 * (invalid) result rather than trapping, matching guarded-manipulation
 * semantics; the instruction layer decides when an untagged value is a
 * trap.
 *
 * Metadata word layout (bit boundaries from Fig. 1):
 *   [31]    R    reserved
 *   [30:25] p'6  compressed permissions
 *   [24:22] o'3  otype
 *   [21:18] E'4  bounds exponent
 *   [17:9]  B'9  bounds base
 *   [8:0]   T'9  bounds top
 */

#ifndef CHERIOT_CAP_CAPABILITY_H
#define CHERIOT_CAP_CAPABILITY_H

#include "cap/bounds.h"
#include "cap/permissions.h"
#include "cap/sealing.h"

#include <cstdint>
#include <optional>
#include <string>

namespace cheriot::cap
{

/** Size and alignment of a capability in memory. */
constexpr uint32_t kCapabilitySize = 8;

class Capability
{
  public:
    /** The null capability: untagged, all fields zero. */
    constexpr Capability() = default;

    /** @name Root construction (§3.1.1)
     * On CPU reset three roots are present in registers: one for
     * read/write memory, one for executable memory, and one for
     * sealing. Early boot derives everything from these and erases
     * them.
     * @{ */
    static Capability memoryRoot();
    static Capability executableRoot();
    static Capability sealingRoot();
    /** @} */

    /** Reconstruct a capability from its packed memory image. */
    static Capability fromBits(uint64_t bits, bool tag);

    /**
     * An integer in the merged register file: the null capability
     * with its address set, equal to Capability().withAddress(value).
     * Null bounds (E = B = T = 0) decode at any address to the empty
     * window at the address's 512-byte-aligned floor.
     */
    static Capability fromInteger(uint32_t value)
    {
        return Capability(value);
    }

    /** Pack into the 64-bit memory image (tag carried out of band). */
    uint64_t toBits() const;

    /** @name Field accessors @{ */
    bool tag() const { return tag_; }
    uint32_t address() const { return address_; }
    PermSet perms() const { return perms_; }
    uint8_t permsField() const { return permsField_; }
    uint8_t otype() const { return otype_; }
    bool isSealed() const { return otype_ != kOtypeUnsealed; }
    const EncodedBounds &encodedBounds() const { return bounds_; }
    uint32_t base() const { return base_; }
    uint64_t top() const { return top_; }
    uint64_t length() const { return top_ - base_; }
    /** @} */

    /** True iff the permissions use the executable format (and thus
     * the otype, if any, lives in the executable namespace). */
    bool isExecutable() const { return perms_.has(PermExecute); }

    /** A capability is local iff it lacks the Global permission. */
    bool isLocal() const { return !perms_.has(PermGlobal); }

    /** Forward sentry: sealed executable with a sentry otype. */
    bool isForwardSentry() const
    {
        return isExecutable() && cap::isForwardSentry(otype_);
    }

    /** Return sentry: sealed executable with a return-sentry otype. */
    bool isReturnSentry() const
    {
        return isExecutable() && cap::isReturnSentry(otype_);
    }

    /** @name In-bounds checks for memory access @{ */
    bool inBounds(uint32_t addr, uint32_t size) const
    {
        return addr >= base_ && uint64_t{addr} + size <= top_;
    }
    /** @} */

    /** @name Guarded manipulation (monotone; may clear the tag) @{ */

    /** Replace the address; untag if sealed or unrepresentable. */
    Capability withAddress(uint32_t newAddress) const
    {
        Capability c = *this;
        c.setAddress(newAddress);
        return c;
    }

    /** In place: *this = withAddress(newAddress). The hot paths (PCC
     * on every instruction) update in place to spare a 32-byte copy. */
    void setAddress(uint32_t newAddress)
    {
        // Every address in [base, base + 2^(e+9)) decodes the bounds
        // fields to this same window, so the decoded fields carry
        // over. The current address must itself lie in the window:
        // below it, the cached base wrapped past zero and the window
        // test would be wrong.
        if (address_ < base_ ||
            uint64_t{newAddress} - base_ >=
                representableSpan(bounds_.exponent)) {
            *this = withAddressOutsideWindow(newAddress);
            return;
        }
        address_ = newAddress;
        if (isSealed()) {
            tag_ = false;
        }
    }

    /** Add a (signed) offset to the address. */
    Capability withAddressOffset(int64_t offset) const
    {
        return withAddress(static_cast<uint32_t>(address_ + offset));
    }

    /**
     * Narrow bounds to [address, address + length). Untag if the
     * request is not fully inside the current bounds or the
     * capability is sealed/untagged. If the encoding must round, the
     * result covers the rounded window, still within the original
     * bounds when possible (rounding may *grow* the window; if growth
     * escapes the original bounds, untag). @p exactOut reports
     * whether rounding occurred.
     */
    Capability withBounds(uint64_t length, bool *exactOut = nullptr) const;

    /** As withBounds but untag unless exactly representable. */
    Capability withBoundsExact(uint64_t length) const;

    /** Intersect permissions with @p mask (CAndPerm). */
    Capability withPermsAnd(uint16_t mask) const;

    /** Clear the validity tag. */
    Capability withTagCleared() const;

    /**
     * Apply the recursive load side effects of §3.1.1: when loaded
     * through an authority lacking LG, the result loses GL and LG;
     * when loaded through an authority lacking LM (and the result is
     * not executable), it loses SD and LM.
     */
    Capability attenuatedForLoad(PermSet authorityPerms) const;

    /** @} */

    /** @name Sealing (raw field edits; authority checks live in the
     * instruction layer) @{ */
    Capability sealedWith(uint8_t otype) const;
    Capability unsealedCopy() const;
    /** @} */

    /** Structural equality including tag (CSetEqualExact). */
    bool operator==(const Capability &other) const;

    /** Diagnostic rendering. */
    std::string toString() const;

  private:
    /** The integer @p value (see fromInteger). */
    explicit constexpr Capability(uint32_t value)
        : address_(value), base_(value & ~uint32_t{0x1ff}), top_(base_)
    {}

    /** A tagged root at address 0. */
    static Capability makeRoot(EncodedBounds bounds, PermSet perms);

    /** Recompute the decoded fields from the encoded ones. */
    void refresh();

    /** withAddress for a move out of the window: decode afresh and
     * untag if the bounds changed. */
    Capability withAddressOutsideWindow(uint32_t newAddress) const;

    /** @name Architectural fields (the 64-bit image and its tag) @{ */
    uint32_t address_ = 0;
    EncodedBounds bounds_ = {0, 0, 0};
    uint8_t permsField_ = 0;
    uint8_t otype_ = 0;
    bool reserved_ = false;
    bool tag_ = false;
    /** @} */

    /** @name Decoded fields
     * A host-side cache: always equal to decompressPerms(permsField_)
     * and decodeBounds(bounds_, address_). Never serialized and never
     * compared; refresh() restores them after a field edit. @{ */
    PermSet perms_;
    uint32_t base_ = 0;
    uint64_t top_ = 0;
    /** @} */
};

/**
 * CSeal: seal @p target with the otype addressed by @p authority.
 * Returns nullopt (meaning the instruction must produce an untagged
 * or trapping result) unless: both caps are tagged, neither is
 * sealed, @p authority has SE, its address is in bounds and maps to a
 * valid otype for @p target's namespace.
 */
std::optional<Capability> seal(const Capability &target,
                               const Capability &authority);

/** CUnseal: the inverse, requiring US and a matching otype address. */
std::optional<Capability> unseal(const Capability &target,
                                 const Capability &authority);

/**
 * Make a forward sentry from an unsealed executable capability.
 * This models the RTOS loader/switcher minting entry points; it
 * requires an unsealed, tagged, executable input.
 */
std::optional<Capability> makeSentry(const Capability &target,
                                     InterruptPosture posture);

/** CTestSubset: is @p child's authority a subset of @p parent's? */
bool isSubsetOf(const Capability &child, const Capability &parent);

} // namespace cheriot::cap

#endif // CHERIOT_CAP_CAPABILITY_H
