#include "cap/capability.h"

#include "util/bits.h"
#include "util/log.h"

#include <cinttypes>
#include <cstdio>

namespace cheriot::cap
{

namespace
{

/** Full-address-space bounds: base 0, top 2^32 (E = 0xF ⇒ 24). */
constexpr EncodedBounds kFullBounds = {0xf, 0, 256};

} // namespace

Capability
Capability::makeRoot(EncodedBounds bounds, PermSet perms)
{
    Capability c;
    c.tag_ = true;
    c.bounds_ = bounds;
    c.permsField_ = compressPerms(perms);
    c.refresh();
    return c;
}

Capability
Capability::memoryRoot()
{
    static const Capability root = makeRoot(
        kFullBounds,
        PermSet(PermGlobal | PermLoad | PermStore | PermMemCap |
                PermStoreLocal | PermLoadMutable | PermLoadGlobal));
    return root;
}

Capability
Capability::executableRoot()
{
    static const Capability root = makeRoot(
        kFullBounds,
        PermSet(PermGlobal | PermExecute | PermLoad | PermMemCap |
                PermSystemRegs | PermLoadMutable | PermLoadGlobal));
    return root;
}

Capability
Capability::sealingRoot()
{
    // Bounds cover the small otype address space only.
    static const Capability root = makeRoot(
        encodeBounds(0, kOtypeAddressSpaceSize).encoded,
        PermSet(PermGlobal | PermSeal | PermUnseal | PermUser0));
    return root;
}

void
Capability::setBits(uint64_t rawBits, bool tag)
{
    const uint32_t meta = static_cast<uint32_t>(rawBits >> 32);
    address_ = static_cast<uint32_t>(rawBits);
    reserved_ = bit(meta, 31);
    permsField_ = static_cast<uint8_t>(bits(meta, 25u, 6u));
    otype_ = static_cast<uint8_t>(bits(meta, 22u, 3u));
    bounds_.exponent = static_cast<uint8_t>(bits(meta, 18u, 4u));
    bounds_.base9 = static_cast<uint16_t>(bits(meta, 9u, 9u));
    bounds_.top9 = static_cast<uint16_t>(bits(meta, 0u, 9u));
    tag_ = tag;
    refresh();
}

uint64_t
Capability::toBits() const
{
    uint32_t meta = 0;
    meta = insertBits(meta, 31u, 1u, uint32_t{reserved_});
    meta = insertBits(meta, 25u, 6u, uint32_t{permsField_});
    meta = insertBits(meta, 22u, 3u, uint32_t{otype_});
    meta = insertBits(meta, 18u, 4u, uint32_t{bounds_.exponent});
    meta = insertBits(meta, 9u, 9u, uint32_t{bounds_.base9});
    meta = insertBits(meta, 0u, 9u, uint32_t{bounds_.top9});
    return (static_cast<uint64_t>(meta) << 32) | address_;
}

void
Capability::refresh()
{
    const DecodedBounds decoded = decodeBounds(bounds_, address_);
    base_ = decoded.base;
    top_ = decoded.top;
    perms_ = decompressPerms(permsField_);
}

Capability
Capability::withAddressOutsideWindow(uint32_t newAddress) const
{
    Capability c = *this;
    c.address_ = newAddress;
    c.refresh();
    // The representable-limit check (addressPreservesBounds), with
    // the old decode taken from the cache.
    if (tag_ && (isSealed() || c.base_ != base_ || c.top_ != top_)) {
        c.tag_ = false;
    }
    return c;
}

Capability
Capability::withBounds(uint64_t length, bool *exactOut) const
{
    if (exactOut != nullptr) {
        *exactOut = true;
    }
    Capability c = *this;
    if (!tag_ || isSealed()) {
        c.tag_ = false;
        return c;
    }

    const uint32_t newBase = address_;
    const uint64_t newTop = static_cast<uint64_t>(newBase) + length;
    if (newBase < base_ || newTop > top_ ||
        newTop > (uint64_t{1} << 32)) {
        c.tag_ = false;
        return c;
    }

    const auto enc = encodeBounds(newBase, length);
    if (exactOut != nullptr) {
        *exactOut = enc.exact;
    }
    // Rounding can only grow the window; growth that escapes the
    // original authority must not produce a tagged capability.
    if (enc.decoded.base < base_ || enc.decoded.top > top_) {
        c.tag_ = false;
        return c;
    }
    // The encoder decoded its result at this same address.
    c.bounds_ = enc.encoded;
    c.base_ = enc.decoded.base;
    c.top_ = enc.decoded.top;
    return c;
}

Capability
Capability::withBoundsExact(uint64_t length) const
{
    bool exact = false;
    Capability c = withBounds(length, &exact);
    if (!exact) {
        c.tag_ = false;
    }
    return c;
}

Capability
Capability::withPermsAnd(uint16_t mask) const
{
    Capability c = *this;
    if (tag_ && isSealed()) {
        c.tag_ = false;
        return c;
    }
    c.permsField_ = compressPerms(perms_.intersect(PermSet(mask)));
    c.refresh();
    return c;
}

Capability
Capability::withTagCleared() const
{
    Capability c = *this;
    c.tag_ = false;
    return c;
}

void
Capability::attenuateForLoad(PermSet authorityPerms)
{
    if (!tag_) {
        return;
    }
    PermSet p = perms_;
    if (!authorityPerms.has(PermLoadGlobal)) {
        p = p.without(PermGlobal | PermLoadGlobal);
    }
    if (!authorityPerms.has(PermLoadMutable) && !p.has(PermExecute)) {
        p = p.without(PermStore | PermLoadMutable);
    }
    if (p == perms_) {
        // Every field round-trips exactly through decompress and
        // compress, so re-compressing would reproduce permsField_.
        return;
    }
    permsField_ = compressPerms(p);
    refresh();
}

Capability
Capability::sealedWith(uint8_t otype)
    const
{
    Capability c = *this;
    c.otype_ = otype & 0x7;
    return c;
}

Capability
Capability::unsealedCopy() const
{
    Capability c = *this;
    c.otype_ = kOtypeUnsealed;
    return c;
}

bool
Capability::operator==(const Capability &other) const
{
    return tag_ == other.tag_ && toBits() == other.toBits();
}

std::string
Capability::toString() const
{
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%c 0x%08" PRIx32 " [0x%08" PRIx32 ", 0x%09" PRIx64
                  ") perms=%s otype=%u",
                  tag_ ? 'v' : '-', address_, base(), top(),
                  permsToString(perms()).c_str(), otype_);
    return buffer;
}

std::optional<Capability>
seal(const Capability &target, const Capability &authority)
{
    if (!target.tag() || !authority.tag() || target.isSealed() ||
        authority.isSealed() || !authority.perms().has(PermSeal)) {
        return std::nullopt;
    }
    const uint32_t addr = authority.address();
    if (!authority.inBounds(addr, 1)) {
        return std::nullopt;
    }
    const uint32_t namespaceBase = otypeAddressBase(target.isExecutable());
    if (addr < namespaceBase + 1 || addr >= namespaceBase + kOtypeCount) {
        return std::nullopt;
    }
    return target.sealedWith(static_cast<uint8_t>(addr - namespaceBase));
}

std::optional<Capability>
unseal(const Capability &target, const Capability &authority)
{
    if (!target.tag() || !authority.tag() || !target.isSealed() ||
        authority.isSealed() || !authority.perms().has(PermUnseal)) {
        return std::nullopt;
    }
    const uint32_t addr = authority.address();
    if (!authority.inBounds(addr, 1)) {
        return std::nullopt;
    }
    if (addr != target.typeAddress()) {
        return std::nullopt;
    }
    return target.unsealedCopy();
}

std::optional<Capability>
makeSentry(const Capability &target, InterruptPosture posture)
{
    if (!target.tag() || target.isSealed() ||
        !target.perms().has(PermExecute)) {
        return std::nullopt;
    }
    return target.sealedWith(forwardSentryFor(posture));
}

bool
isSubsetOf(const Capability &child, const Capability &parent)
{
    if (!child.tag() || !parent.tag()) {
        return false;
    }
    return child.base() >= parent.base() && child.top() <= parent.top() &&
           child.perms().subsetOf(parent.perms());
}

} // namespace cheriot::cap
