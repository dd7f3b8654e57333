/**
 * @file
 * Tagged SRAM model.
 *
 * Capabilities occupy 8-byte granules guarded by a validity tag held
 * out of band. Following the CHERIoT-Ibex design (paper §4), the tag
 * is modelled as two *micro-tags*, one per 32-bit half of the granule;
 * the architectural tag is their AND. A 32-bit (or narrower) data
 * write therefore only needs to clear the micro-tag of the half it
 * touches — exactly the trick that lets Ibex keep a 33-bit data bus —
 * while a capability store sets both. The wide-bus Flute core simply
 * always touches both micro-tags at once.
 */

#ifndef CHERIOT_MEM_TAGGED_MEMORY_H
#define CHERIOT_MEM_TAGGED_MEMORY_H

#include "snapshot/serializer.h"
#include "util/stats.h"

#include <cstdint>
#include <cstring>
#include <vector>

namespace cheriot::mem
{

/** A capability image read from memory. */
struct RawCapBits
{
    uint64_t bits;
    bool tag;      ///< Architectural tag (AND of the micro-tags).
    bool halfTag0; ///< Micro-tag of the low 32-bit half.
    bool halfTag1; ///< Micro-tag of the high 32-bit half.
};

/**
 * Byte-addressable SRAM with per-granule capability micro-tags.
 *
 * Addresses are *physical offsets within this SRAM's window*; routing
 * from the 32-bit architectural address space happens in
 * PhysicalMemory. All accesses must be naturally aligned and in
 * range; violations are internal errors (the caller is responsible
 * for architectural checks) and panic.
 */
class TaggedMemory
{
  public:
    /** @param base architectural base address. @param size bytes,
     * must be a multiple of 8. */
    TaggedMemory(uint32_t base, uint32_t size);

    uint32_t base() const { return base_; }
    uint32_t size() const { return size_; }
    bool contains(uint32_t addr, uint32_t bytes) const
    {
        return addr >= base_ && addr - base_ + bytes <= size_;
    }

    /** @name Data access (clears the touched half's micro-tag on
     * write). Inline: every checked access of the machine lands here
     * after its one validation. @{ */
    uint8_t read8(uint32_t addr) const
    {
        const uint32_t off = offsetOf(addr, 1, 1);
        const_cast<Counter &>(reads)++;
        return data_[off];
    }
    uint16_t read16(uint32_t addr) const
    {
        const uint32_t off = offsetOf(addr, 2, 2);
        const_cast<Counter &>(reads)++;
        uint16_t value;
        std::memcpy(&value, &data_[off], sizeof(value));
        return value;
    }
    uint32_t read32(uint32_t addr) const
    {
        const_cast<Counter &>(reads)++;
        return peek32(addr);
    }
    /**
     * Word read that bypasses the access counters. For simulator
     * plumbing whose access *timing* is not architectural — decode
     * cache fills in particular happen at different points in a
     * straight run versus a restored one, and must not perturb
     * counters that are part of the serialized machine state.
     */
    uint32_t peek32(uint32_t addr) const
    {
        const uint32_t off = offsetOf(addr, 4, 4);
        uint32_t value;
        std::memcpy(&value, &data_[off], sizeof(value));
        return value;
    }
    /** Byte read bypassing the access counters (debugger reads must
     * not perturb serialized counter state). */
    uint8_t peek8(uint32_t addr) const { return data_[offsetOf(addr, 1, 1)]; }
    /**
     * Debugger byte write: stores the byte and clears the covering
     * half's micro-tag (the tag-clearing rule holds for debugger
     * pokes too — there is no back door that forges capabilities),
     * but bypasses the access counters so the only serialized state
     * that changes is the memory the debugger explicitly asked to
     * change.
     */
    void debugWrite8(uint32_t addr, uint8_t value);
    void write8(uint32_t addr, uint8_t value)
    {
        const uint32_t off = offsetOf(addr, 1, 1);
        data_[off] = value;
        noteDataWrite(off);
    }
    void write16(uint32_t addr, uint16_t value)
    {
        const uint32_t off = offsetOf(addr, 2, 2);
        std::memcpy(&data_[off], &value, sizeof(value));
        noteDataWrite(off);
    }
    void write32(uint32_t addr, uint32_t value)
    {
        const uint32_t off = offsetOf(addr, 4, 4);
        std::memcpy(&data_[off], &value, sizeof(value));
        noteDataWrite(off);
    }
    /** @} */

    /** @name Capability access (8-byte aligned granules) @{ */
    RawCapBits readCap(uint32_t addr) const
    {
        const_cast<Counter &>(capReads)++;
        return peekCap(addr);
    }
    /** Capability granule read bypassing the access counters; the
     * background revoker's whole-word sweep counts its reads itself. */
    RawCapBits peekCap(uint32_t addr) const
    {
        const uint32_t off = offsetOf(addr, 8, 8);
        uint64_t bits;
        std::memcpy(&bits, &data_[off], sizeof(bits));
        const uint8_t tags = microTags_[off / 8];
        RawCapBits out;
        out.bits = bits;
        out.halfTag0 = (tags & 0x1) != 0;
        out.halfTag1 = (tags & 0x2) != 0;
        out.tag = out.halfTag0 && out.halfTag1;
        return out;
    }
    /** Store a capability image; sets both micro-tags to @p tag. */
    void writeCap(uint32_t addr, uint64_t bits, bool tag)
    {
        const uint32_t off = offsetOf(addr, 8, 8);
        capWrites++;
        std::memcpy(&data_[off], &bits, sizeof(bits));
        microTags_[off / 8] = tag ? 0x3 : 0x0;
    }
    /** Clear the granule's tag without touching data (revoker
     * writeback optimization: a single tag-clearing write). */
    void clearCapTag(uint32_t addr)
    {
        const uint32_t off = offsetOf(addr, 8, 8);
        capWrites++;
        microTags_[off / 8] = 0;
    }
    /** @} */

    /** Architectural tag of the granule containing @p addr. */
    bool tagAt(uint32_t addr) const;

    /** Zero a byte range (also clears covered micro-tags). */
    void zeroRange(uint32_t addr, uint32_t bytes);

    /** @name Fault-injection back door (FaultInjector only) @{ */
    /**
     * Flip bit @p bit (0–63) of the granule containing @p addr.
     * With @p failSafe the covering half's micro-tag is cleared, as
     * any narrow disturbance of the storage array does on real
     * CHERIoT-Ibex — corrupted capabilities lose their validity
     * instead of becoming forgeries. @p failSafe=false models
     * hardware without micro-tag protection (oracle testing only).
     */
    void injectDataFlip(uint32_t addr, uint32_t bit, bool failSafe);
    /** Clear both micro-tags of the granule containing @p addr
     * without touching data (a particle strike on the tag array;
     * 1→0 only — the tag bit cell cannot be set by disturbance). */
    void injectTagClear(uint32_t addr);
    /** @} */

    /** @name Snapshot state (contents, micro-tags, counters); a
     * restore fails on a geometry mismatch or a short payload @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.expectU32(self.base_);
        a.expectU32(self.size_);
        a.bytes(self.data_.data(), self.data_.size());
        a.bytes(self.microTags_.data(), self.microTags_.size());
        a.counter(self.reads);
        a.counter(self.writes);
        a.counter(self.capReads);
        a.counter(self.capWrites);
        a.counter(self.tagClears);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** CRC-32 over contents and micro-tags only (no counters), so
     * machines with different timing models can still be compared. */
    uint32_t contentsDigest() const;
    /** @} */

    StatGroup &stats() { return stats_; }

    Counter reads;      ///< Data read accesses.
    Counter writes;     ///< Data write accesses.
    Counter capReads;   ///< Capability granule reads.
    Counter capWrites;  ///< Capability granule writes.
    Counter tagClears;  ///< Tags cleared by data writes.

  private:
    /** Offset of an in-range, naturally aligned access; anything else
     * is an internal error (the caller checks architecturally). */
    uint32_t offsetOf(uint32_t addr, uint32_t bytes, uint32_t align) const
    {
        if (!contains(addr, bytes) || addr % align != 0) [[unlikely]] {
            badAccess(addr, bytes, align);
        }
        return addr - base_;
    }
    [[noreturn, gnu::cold]] void badAccess(uint32_t addr, uint32_t bytes,
                                           uint32_t align) const;
    /** A data write at @p off clears the micro-tag of its half. */
    void noteDataWrite(uint32_t off)
    {
        writes++;
        const uint32_t granule = off / 8;
        const uint8_t halfMask = (off % 8) < 4 ? 0x1 : 0x2;
        if (microTags_[granule] & halfMask) {
            tagClears++;
        }
        microTags_[granule] &= ~halfMask;
    }

    uint32_t base_;
    uint32_t size_;
    std::vector<uint8_t> data_;
    /** Two micro-tag bits per 8-byte granule. */
    std::vector<uint8_t> microTags_;
    StatGroup stats_;
};

} // namespace cheriot::mem

#endif // CHERIOT_MEM_TAGGED_MEMORY_H
