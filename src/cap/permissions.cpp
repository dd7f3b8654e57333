#include "cap/permissions.h"

#include "util/bits.h"
#include "util/log.h"

#include <array>

namespace cheriot::cap
{

namespace
{

constexpr uint8_t kGlBit = 1u << 5;

/**
 * Decode the low five bits of the compressed field (everything except
 * GL) into an architectural mask (excluding GL).
 */
constexpr uint16_t
decodeLow5(uint8_t low5)
{
    const bool b4 = bit(low5, 4);
    const bool b3 = bit(low5, 3);
    const bool b2 = bit(low5, 2);
    const bool b1 = bit(low5, 1);
    const bool b0 = bit(low5, 0);

    if (b4 && b3) {
        // 1 1 SL LM LG : read/write memory, capability-bearing.
        uint16_t mask = PermLoad | PermMemCap | PermStore;
        if (b2) mask |= PermStoreLocal;
        if (b1) mask |= PermLoadMutable;
        if (b0) mask |= PermLoadGlobal;
        return mask;
    }
    if (b4 && !b3 && b2) {
        // 1 0 1 LM LG : read-only memory, capability-bearing.
        uint16_t mask = PermLoad | PermMemCap;
        if (b1) mask |= PermLoadMutable;
        if (b0) mask |= PermLoadGlobal;
        return mask;
    }
    if (b4 && !b3 && !b2) {
        if (!b1 && !b0) {
            // 1 0 0 0 0 : write-only capability-bearing memory.
            return PermStore | PermMemCap;
        }
        // 1 0 0 LD SD : data-only memory (no capability traffic).
        uint16_t mask = 0;
        if (b1) mask |= PermLoad;
        if (b0) mask |= PermStore;
        return mask;
    }
    if (!b4 && b3) {
        // 0 1 SR LM LG : executable.
        uint16_t mask = PermExecute | PermLoad | PermMemCap;
        if (b2) mask |= PermSystemRegs;
        if (b1) mask |= PermLoadMutable;
        if (b0) mask |= PermLoadGlobal;
        return mask;
    }
    // 0 0 U0 SE US : sealing (or the empty set when all clear).
    uint16_t mask = 0;
    if (b2) mask |= PermUser0;
    if (b1) mask |= PermSeal;
    if (b0) mask |= PermUnseal;
    return mask;
}

/**
 * Try to encode @p noGl (an architectural mask with GL removed) in one
 * specific format. Returns the representable subset achievable in that
 * format and writes the low-5-bit encoding to @p low5Out. A format is
 * usable only if all of its implied permissions are present in the
 * request (an encoding must never grant more than was asked for).
 * Returns 0 and leaves @p low5Out untouched when unusable.
 */
uint16_t
tryFormat(PermFormat format, uint16_t noGl, uint8_t *low5Out)
{
    switch (format) {
      case PermFormat::MemCapRW: {
        constexpr uint16_t implied = PermLoad | PermMemCap | PermStore;
        if ((noGl & implied) != implied) {
            return 0;
        }
        uint8_t low5 = 0b11000;
        uint16_t mask = implied;
        if (noGl & PermStoreLocal) { low5 |= 0b100; mask |= PermStoreLocal; }
        if (noGl & PermLoadMutable) { low5 |= 0b010; mask |= PermLoadMutable; }
        if (noGl & PermLoadGlobal) { low5 |= 0b001; mask |= PermLoadGlobal; }
        *low5Out = low5;
        return mask;
      }
      case PermFormat::MemCapRO: {
        constexpr uint16_t implied = PermLoad | PermMemCap;
        if ((noGl & implied) != implied) {
            return 0;
        }
        uint8_t low5 = 0b10100;
        uint16_t mask = implied;
        if (noGl & PermLoadMutable) { low5 |= 0b010; mask |= PermLoadMutable; }
        if (noGl & PermLoadGlobal) { low5 |= 0b001; mask |= PermLoadGlobal; }
        *low5Out = low5;
        return mask;
      }
      case PermFormat::MemCapWO: {
        constexpr uint16_t implied = PermStore | PermMemCap;
        if ((noGl & implied) != implied) {
            return 0;
        }
        *low5Out = 0b10000;
        return implied;
      }
      case PermFormat::MemDataOnly: {
        uint8_t low5 = 0b10000;
        uint16_t mask = 0;
        if (noGl & PermLoad) { low5 |= 0b010; mask |= PermLoad; }
        if (noGl & PermStore) { low5 |= 0b001; mask |= PermStore; }
        if (mask == 0) {
            // 10000 means MemCapWO; data-only needs LD or SD.
            return 0;
        }
        *low5Out = low5;
        return mask;
      }
      case PermFormat::Executable: {
        constexpr uint16_t implied = PermExecute | PermLoad | PermMemCap;
        if ((noGl & implied) != implied) {
            return 0;
        }
        uint8_t low5 = 0b01000;
        uint16_t mask = implied;
        if (noGl & PermSystemRegs) { low5 |= 0b100; mask |= PermSystemRegs; }
        if (noGl & PermLoadMutable) { low5 |= 0b010; mask |= PermLoadMutable; }
        if (noGl & PermLoadGlobal) { low5 |= 0b001; mask |= PermLoadGlobal; }
        *low5Out = low5;
        return mask;
      }
      case PermFormat::Sealing: {
        uint8_t low5 = 0b00000;
        uint16_t mask = 0;
        if (noGl & PermUser0) { low5 |= 0b100; mask |= PermUser0; }
        if (noGl & PermSeal) { low5 |= 0b010; mask |= PermSeal; }
        if (noGl & PermUnseal) { low5 |= 0b001; mask |= PermUnseal; }
        // Always usable: with all optionals clear it encodes the empty
        // permission set, the terminal fallback.
        *low5Out = low5;
        return mask;
      }
    }
    return 0;
}

constexpr std::array<PermFormat, 6> kFormatOrder = {
    PermFormat::MemCapRW,   PermFormat::MemCapRO,   PermFormat::MemCapWO,
    PermFormat::MemDataOnly, PermFormat::Executable, PermFormat::Sealing,
};

} // namespace

PermSet
decompressPerms(uint8_t encoded)
{
    uint16_t mask = decodeLow5(encoded & 0x1f);
    if (encoded & kGlBit) {
        mask |= PermGlobal;
    }
    return PermSet(mask);
}

uint8_t
compressPerms(PermSet perms)
{
    const uint16_t noGl = perms.mask() & static_cast<uint16_t>(~PermGlobal);

    uint8_t bestLow5 = 0;
    unsigned bestCount = 0;
    bool found = false;
    for (PermFormat format : kFormatOrder) {
        uint8_t low5 = 0;
        const uint16_t mask = tryFormat(format, noGl, &low5);
        if (mask == 0 && format != PermFormat::Sealing) {
            continue;
        }
        const unsigned count = popcount(mask);
        if (!found || count > bestCount) {
            found = true;
            bestCount = count;
            bestLow5 = low5;
            if (mask == noGl) {
                break; // Exact representation; formats are ordered by
                       // preference so the first exact hit wins.
            }
        }
    }

    uint8_t encoded = bestLow5;
    if (perms.has(PermGlobal)) {
        encoded |= kGlBit;
    }
    return encoded;
}

PermFormat
formatOf(uint8_t encoded)
{
    const uint8_t low5 = encoded & 0x1f;
    const bool b4 = bit(low5, 4);
    const bool b3 = bit(low5, 3);
    const bool b2 = bit(low5, 2);
    if (b4 && b3) return PermFormat::MemCapRW;
    if (b4 && b2) return PermFormat::MemCapRO;
    if (b4 && (low5 & 0b00011) == 0) return PermFormat::MemCapWO;
    if (b4) return PermFormat::MemDataOnly;
    if (b3) return PermFormat::Executable;
    return PermFormat::Sealing;
}

bool
isRepresentablePerms(PermSet perms)
{
    return decompressPerms(compressPerms(perms)) == perms;
}

std::string
permsToString(PermSet perms)
{
    struct Entry
    {
        uint16_t bit;
        const char *name;
    };
    static constexpr Entry kEntries[] = {
        {PermGlobal, "GL"},      {PermLoad, "LD"},
        {PermStore, "SD"},       {PermMemCap, "MC"},
        {PermStoreLocal, "SL"},  {PermLoadGlobal, "LG"},
        {PermLoadMutable, "LM"}, {PermExecute, "EX"},
        {PermSystemRegs, "SR"},  {PermSeal, "SE"},
        {PermUnseal, "US"},      {PermUser0, "U0"},
    };
    std::string out;
    for (const auto &entry : kEntries) {
        if (perms.has(entry.bit)) {
            if (!out.empty()) {
                out += ' ';
            }
            out += entry.name;
        }
    }
    return out.empty() ? std::string("-") : out;
}

} // namespace cheriot::cap
