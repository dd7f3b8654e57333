#include "cap/permissions.h"

#include "util/bits.h"

#include <array>

namespace cheriot::cap
{

namespace
{

constexpr uint8_t kGlBit = 1u << 5;

/**
 * One compressed-permission format of Fig. 2. A field's low five bits
 * belong to a format when, under @p match, they equal @p value.
 */
struct FormatRow
{
    PermFormat format;
    uint8_t match;
    uint8_t value;
    uint16_t implied; ///< Granted by the format itself.
    /** The permission that bits 2, 1 and 0 carry, in that order; 0
     * where the bit belongs to the discriminator. */
    std::array<uint16_t, 3> optional;
};

/** The bit that carries FormatRow::optional[i]. */
constexpr uint8_t
optionalBit(unsigned i)
{
    return static_cast<uint8_t>(0b100 >> i);
}

/**
 * The encoding, the only statement of it: the six formats in
 * preference order. A field decodes through the first row it matches,
 * so 10000 reads as MemCapWO rather than as MemDataOnly with neither
 * LD nor SD; GL is bit 5 in every format.
 */
constexpr std::array<FormatRow, 6> kPermFormats = {{
    // format, discriminator (match, value), implied permissions, then
    // the permissions of bits 2, 1 and 0.
    {PermFormat::MemCapRW, 0b11000, 0b11000,
     PermLoad | PermMemCap | PermStore,
     {PermStoreLocal, PermLoadMutable, PermLoadGlobal}},
    {PermFormat::MemCapRO, 0b11100, 0b10100,
     PermLoad | PermMemCap,
     {0, PermLoadMutable, PermLoadGlobal}},
    {PermFormat::MemCapWO, 0b11111, 0b10000,
     PermStore | PermMemCap,
     {0, 0, 0}},
    {PermFormat::MemDataOnly, 0b11100, 0b10000,
     0,
     {0, PermLoad, PermStore}},
    {PermFormat::Executable, 0b11000, 0b01000,
     PermExecute | PermLoad | PermMemCap,
     {PermSystemRegs, PermLoadMutable, PermLoadGlobal}},
    {PermFormat::Sealing, 0b11000, 0b00000,
     0,
     {PermUser0, PermSeal, PermUnseal}},
}};

/** The first row that @p field matches. */
constexpr const FormatRow &
rowOf(uint8_t field)
{
    for (const FormatRow &row : kPermFormats) {
        if ((field & row.match) == row.value) {
            return row;
        }
    }
    return kPermFormats.back(); // Unreachable: the rows cover all 32 values.
}

/** decompressPerms for every 6-bit field. */
constexpr std::array<uint16_t, 64> kDecoded = [] {
    std::array<uint16_t, 64> table{};
    for (unsigned field = 0; field < table.size(); ++field) {
        const FormatRow &row = rowOf(static_cast<uint8_t>(field));
        uint16_t mask = (field & kGlBit) ? PermGlobal : 0;
        mask |= row.implied;
        for (unsigned i = 0; i < row.optional.size(); ++i) {
            if (field & optionalBit(i)) {
                mask |= row.optional[i];
            }
        }
        table[field] = mask;
    }
    return table;
}();

} // namespace

PermSet
decompressPerms(uint8_t encoded)
{
    return PermSet(kDecoded[encoded & 0x3f]);
}

uint8_t
compressPerms(PermSet perms)
{
    const uint16_t noGl = perms.mask() & static_cast<uint16_t>(~PermGlobal);

    // Start from 00000, Sealing with no optional bit: the empty set. A
    // row that grants nothing never replaces it, which keeps a bare
    // MemDataOnly discriminator (10000, MemCapWO) out of the result.
    uint8_t best = 0;
    unsigned bestCount = 0;
    for (const FormatRow &row : kPermFormats) {
        // An encoding must never grant more than was asked for.
        if ((noGl & row.implied) != row.implied) {
            continue;
        }
        uint8_t low5 = row.value;
        uint16_t granted = row.implied;
        for (unsigned i = 0; i < row.optional.size(); ++i) {
            if ((noGl & row.optional[i]) != 0) {
                low5 |= optionalBit(i);
                granted |= row.optional[i];
            }
        }
        const unsigned count = popcount(granted);
        if (count > bestCount) {
            best = low5;
            bestCount = count;
            if (granted == noGl) {
                break; // Exact; an earlier row wins among exact hits.
            }
        }
    }
    if (perms.has(PermGlobal)) {
        best |= kGlBit;
    }
    return best;
}

PermFormat
formatOf(uint8_t encoded)
{
    return rowOf(encoded).format;
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
