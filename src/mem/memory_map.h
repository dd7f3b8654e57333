/**
 * @file
 * The SoC physical memory map and the PhysicalMemory front-end that
 * routes accesses between tagged SRAM and MMIO devices.
 *
 * The layout mirrors a small CHERIoT SoC: one tightly coupled SRAM
 * bank holding code, globals, stacks and heap, plus MMIO windows for
 * the revocation bitmap (accessible only to the allocator
 * compartment; the loader enforces that), the background revoker, a
 * console, and a timer.
 */

#ifndef CHERIOT_MEM_MEMORY_MAP_H
#define CHERIOT_MEM_MEMORY_MAP_H

#include "mem/mmio.h"
#include "mem/tagged_memory.h"

namespace cheriot::mem
{

/** @name Fixed window bases @{ */
constexpr uint32_t kSramBase = 0x20000000;
constexpr uint32_t kRevocationBitmapBase = 0x30000000;
constexpr uint32_t kRevokerMmioBase = 0x30010000;
constexpr uint32_t kRevokerMmioSize = 0x100;
constexpr uint32_t kConsoleMmioBase = 0x30020000;
constexpr uint32_t kConsoleMmioSize = 0x100;
constexpr uint32_t kTimerMmioBase = 0x30030000;
constexpr uint32_t kTimerMmioSize = 0x100;
/** Read-only allocator/quarantine telemetry (admission control). */
constexpr uint32_t kHeapPressureMmioBase = 0x30040000;
constexpr uint32_t kHeapPressureMmioSize = 0x100;
/** NIC with DMA descriptor rings (driver compartment only). */
constexpr uint32_t kNicMmioBase = 0x30050000;
constexpr uint32_t kNicMmioSize = 0x100;
/** @} */

/**
 * Aggregates SRAM and MMIO behind one access interface.
 *
 * All accesses are *physical*: the capability/permission checks have
 * already been performed by the core. Accesses that hit neither SRAM
 * nor a device report failure so the core can raise a bus-error trap.
 */
class PhysicalMemory
{
  public:
    explicit PhysicalMemory(uint32_t sramSize)
        : sram_(kSramBase, sramSize)
    {}

    TaggedMemory &sram() { return sram_; }
    const TaggedMemory &sram() const { return sram_; }
    MmioBus &mmio() { return mmio_; }

    bool isSram(uint32_t addr, uint32_t bytes) const
    {
        return sram_.contains(addr, bytes);
    }
    bool isMmio(uint32_t addr, uint32_t bytes) const
    {
        return mmio_.covers(addr, bytes);
    }
    bool isMapped(uint32_t addr, uint32_t bytes) const
    {
        return isSram(addr, bytes) || isMmio(addr, bytes);
    }

    /** @name Routed data access
     * Inline: an SRAM access goes straight to the granule; MMIO takes
     * the out-of-line device routes. @{ */
    uint8_t read8(uint32_t addr)
    {
        return isSram(addr, 1) ? sram_.read8(addr) : mmioRead8(addr);
    }
    uint16_t read16(uint32_t addr)
    {
        return isSram(addr, 2) ? sram_.read16(addr) : mmioRead16(addr);
    }
    uint32_t read32(uint32_t addr)
    {
        return isSram(addr, 4) ? sram_.read32(addr) : mmio_.read32(addr);
    }
    void write8(uint32_t addr, uint8_t value)
    {
        if (isSram(addr, 1)) {
            sram_.write8(addr, value);
        } else {
            mmioWrite8(addr, value);
        }
    }
    void write16(uint32_t addr, uint16_t value)
    {
        if (isSram(addr, 2)) {
            sram_.write16(addr, value);
        } else {
            mmioWrite16(addr, value);
        }
    }
    void write32(uint32_t addr, uint32_t value)
    {
        if (isSram(addr, 4)) {
            sram_.write32(addr, value);
        } else {
            mmio_.write32(addr, value);
        }
    }
    /** @} */

    /** Capability granule read; MMIO reads are always untagged. */
    RawCapBits readCap(uint32_t addr)
    {
        return isSram(addr, 8) ? sram_.readCap(addr) : mmioReadCap(addr);
    }
    /** Capability granule write; tags never reach MMIO. */
    void writeCap(uint32_t addr, uint64_t bits, bool tag)
    {
        if (isSram(addr, 8)) {
            sram_.writeCap(addr, bits, tag);
        } else {
            mmioWriteCap(addr, bits);
        }
    }

  private:
    /** @name MMIO routes (sub-word and capability-sized accesses go
     * through the containing 32-bit registers) @{ */
    uint8_t mmioRead8(uint32_t addr);
    uint16_t mmioRead16(uint32_t addr);
    void mmioWrite8(uint32_t addr, uint8_t value);
    void mmioWrite16(uint32_t addr, uint16_t value);
    RawCapBits mmioReadCap(uint32_t addr);
    void mmioWriteCap(uint32_t addr, uint64_t bits);
    /** @} */

    TaggedMemory sram_;
    MmioBus mmio_;
};

} // namespace cheriot::mem

#endif // CHERIOT_MEM_MEMORY_MAP_H
