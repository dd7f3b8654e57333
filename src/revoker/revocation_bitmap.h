/**
 * @file
 * Heap revocation bitmap (paper §3.3.1).
 *
 * Each 8-byte heap granule (the capability size and alignment) has
 * one revocation bit indicating that the granule belongs to a
 * freed-but-not-yet-revoked chunk. The bitmap is memory-mapped and the
 * RTOS loader ensures that only the allocator compartment receives a
 * capability to the window. The SRAM overhead at 8-byte granules is
 * 1/(8*8) = 1.56% of *heap* memory only.
 */

#ifndef CHERIOT_REVOKER_REVOCATION_BITMAP_H
#define CHERIOT_REVOKER_REVOCATION_BITMAP_H

#include "mem/mmio.h"
#include "snapshot/serializer.h"
#include "util/bits.h"
#include "util/stats.h"

#include <cstdint>
#include <vector>

namespace cheriot::revoker
{

class RevocationBitmap : public mem::MmioDevice
{
  public:
    /** Bytes per revocation bit. */
    static constexpr uint32_t kGranule = 8;

    /**
     * @param heapBase  architectural base of the covered heap window.
     * @param heapSize  bytes covered.
     */
    RevocationBitmap(uint32_t heapBase, uint32_t heapSize);

    uint32_t heapBase() const { return heapBase_; }
    uint32_t heapSize() const { return heapSize_; }

    /** Size of the MMIO window in bytes (the bitmap itself). */
    uint32_t mmioSize() const
    {
        return static_cast<uint32_t>(words_.size() * 4);
    }

    /** True iff @p addr lies inside the covered heap window. */
    bool covers(uint32_t addr) const
    {
        return addr >= heapBase_ && addr < heapBase_ + heapSize_;
    }

    /** Revocation bit for the granule containing @p addr.
     * Addresses outside the window are never revoked. */
    bool isRevoked(uint32_t addr) const
    {
        lookups++;
        return peekRevoked(addr);
    }
    /** isRevoked() without counting the lookup; the background
     * revoker's whole-word sweep counts its lookups itself. */
    bool peekRevoked(uint32_t addr) const
    {
        if (!covers(addr)) {
            return false;
        }
        const uint32_t index = bitIndexOf(addr);
        return bit(words_[index / 32], index % 32);
    }

    /** Paint revocation bits over [addr, addr+bytes). */
    void setRange(uint32_t addr, uint32_t bytes);

    /** Clear revocation bits over [addr, addr+bytes) (after a
     * completed sweep, before reuse). */
    void clearRange(uint32_t addr, uint32_t bytes);

    /** Count of currently painted bits (diagnostics). */
    uint32_t paintedBits() const;

    /** @name Snapshot state @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.expectU32(self.heapBase_);
        a.expectU32(self.heapSize_);
        a.expectU32(kGranule);
        for (auto &word : self.words_) {
            a.u32(word);
        }
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

    /** @name MmioDevice (the allocator's architectural window) @{ */
    std::string name() const override { return "revocation-bitmap"; }
    uint32_t read32(uint32_t offset) override;
    void write32(uint32_t offset, uint32_t value) override;
    /** @} */

    /** Revocation-bit lookups (load filter + revoker sweeps).
     * Diagnostic only — not serialized. */
    mutable Counter lookups;

    StatGroup &stats() { return stats_; }

  private:
    uint32_t bitIndexOf(uint32_t addr) const
    {
        return (addr - heapBase_) / kGranule;
    }

    uint32_t heapBase_;
    uint32_t heapSize_;
    std::vector<uint32_t> words_;
    StatGroup stats_{"bitmap"};
};

} // namespace cheriot::revoker

#endif // CHERIOT_REVOKER_REVOCATION_BITMAP_H
