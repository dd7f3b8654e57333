/**
 * @file
 * CHERIoT capability permissions and their 6-bit compressed encoding.
 *
 * The paper (§3.1.1, §3.2.1, Table 1, Fig. 2) defines 12 architectural
 * permissions and compresses them into 6 bits by exploiting their
 * interdependence: the compressed field selects one of six "formats",
 * each granting some permissions implicitly and encoding the optional
 * permissions that are meaningful in that format. Combinations the
 * software model never needs (e.g. execute + store, per W^X) are
 * unrepresentable by construction.
 *
 * Per §3.2.1 the architectural view places the most commonly cleared
 * permissions (GL, LG, LM, SD) in the lowest bits so that clearing
 * masks fit a compressed-instruction immediate.
 */

#ifndef CHERIOT_CAP_PERMISSIONS_H
#define CHERIOT_CAP_PERMISSIONS_H

#include <cstdint>
#include <string>

namespace cheriot::cap
{

/**
 * Architectural permission bits (Table 1).
 *
 * Bit positions define the architectural view returned by CGetPerm and
 * consumed by CAndPerm.
 */
enum Perm : uint16_t
{
    PermGlobal = 1u << 0,      ///< GL: may be stored via non-SL authority
    PermLoadGlobal = 1u << 1,  ///< LG: loaded caps keep GL/LG
    PermLoadMutable = 1u << 2, ///< LM: loaded caps keep SD/LM
    PermStore = 1u << 3,       ///< SD: store data
    PermLoad = 1u << 4,        ///< LD: load data
    PermMemCap = 1u << 5,      ///< MC: loads/stores move capabilities
    PermStoreLocal = 1u << 6,  ///< SL: may store non-global capabilities
    PermExecute = 1u << 7,     ///< EX: instruction fetch
    PermSystemRegs = 1u << 8,  ///< SR: access special registers
    PermSeal = 1u << 9,        ///< SE: seal with covered otypes
    PermUnseal = 1u << 10,     ///< US: unseal covered otypes
    PermUser0 = 1u << 11,      ///< U0: software-defined
};

/** Mask covering all twelve architectural permissions. */
constexpr uint16_t kAllPerms = 0x0fff;

/**
 * A set of architectural permissions.
 *
 * Thin wrapper over a 12-bit mask with set-algebra helpers; kept
 * trivially copyable so it can live inside the packed capability type.
 */
class PermSet
{
  public:
    constexpr PermSet() = default;
    explicit constexpr PermSet(uint16_t mask) : mask_(mask & kAllPerms) {}

    constexpr uint16_t mask() const { return mask_; }

    constexpr bool has(uint16_t perms) const
    {
        return (mask_ & perms) == perms;
    }

    constexpr bool hasAny(uint16_t perms) const
    {
        return (mask_ & perms) != 0;
    }

    constexpr PermSet with(uint16_t perms) const
    {
        return PermSet(mask_ | perms);
    }

    constexpr PermSet without(uint16_t perms) const
    {
        return PermSet(mask_ & static_cast<uint16_t>(~perms));
    }

    constexpr PermSet intersect(PermSet other) const
    {
        return PermSet(mask_ & other.mask_);
    }

    constexpr bool subsetOf(PermSet other) const
    {
        return (mask_ & ~other.mask_) == 0;
    }

    constexpr bool operator==(const PermSet &other) const = default;

  private:
    uint16_t mask_ = 0;
};

/**
 * The six compressed-permission formats of Fig. 2, in preference
 * order. Bit 5 of the field is GL; bits 4..0 hold a format's
 * discriminator and its optional permissions. kPermFormats in
 * permissions.cpp states each format's bits, and decompressPerms,
 * compressPerms and formatOf are all derived from it. The bit order
 * within the field is this model's choice: the paper fixes the
 * formats, not their layout.
 */
enum class PermFormat : uint8_t
{
    MemCapRW,
    MemCapRO,
    MemCapWO,
    MemDataOnly,
    Executable,
    Sealing,
};

/**
 * Decode a 6-bit compressed permission field into the architectural
 * permission set.
 */
PermSet decompressPerms(uint8_t encoded);

/**
 * Compress an architectural permission set into the 6-bit field.
 *
 * If @p perms is exactly representable the encoding is exact.
 * Otherwise the encoding represents the unique maximal representable
 * subset (matching hardware CAndPerm semantics, where clearing one
 * permission may force others clear); ties are broken by format order
 * RW > RO > WO > DataOnly > Executable > Sealing.  The result always
 * satisfies decompressPerms(compressPerms(p)).subsetOf(p).
 */
uint8_t compressPerms(PermSet perms);

/** Which format a compressed field uses. */
PermFormat formatOf(uint8_t encoded);

/** True iff @p perms survives compression unchanged. */
bool isRepresentablePerms(PermSet perms);

/** Short human-readable rendering, e.g. "GL LD MC SD SL LM LG". */
std::string permsToString(PermSet perms);

} // namespace cheriot::cap

#endif // CHERIOT_CAP_PERMISSIONS_H
