#include "mem/memory_map.h"

namespace cheriot::mem
{

uint8_t
PhysicalMemory::mmioRead8(uint32_t addr)
{
    // Sub-word MMIO access reads the containing register and extracts.
    const uint32_t word = mmio_.read32(addr & ~3u);
    return static_cast<uint8_t>(word >> ((addr & 3u) * 8));
}

uint16_t
PhysicalMemory::mmioRead16(uint32_t addr)
{
    const uint32_t word = mmio_.read32(addr & ~3u);
    return static_cast<uint16_t>(word >> ((addr & 2u) * 8));
}

void
PhysicalMemory::mmioWrite8(uint32_t addr, uint8_t value)
{
    // Read-modify-write for sub-word MMIO stores.
    const uint32_t aligned = addr & ~3u;
    uint32_t word = mmio_.read32(aligned);
    const unsigned shift = (addr & 3u) * 8;
    word = (word & ~(0xffu << shift)) | (uint32_t{value} << shift);
    mmio_.write32(aligned, word);
}

void
PhysicalMemory::mmioWrite16(uint32_t addr, uint16_t value)
{
    const uint32_t aligned = addr & ~3u;
    uint32_t word = mmio_.read32(aligned);
    const unsigned shift = (addr & 2u) * 8;
    word = (word & ~(0xffffu << shift)) | (uint32_t{value} << shift);
    mmio_.write32(aligned, word);
}

RawCapBits
PhysicalMemory::mmioReadCap(uint32_t addr)
{
    const uint32_t lo = mmio_.read32(addr);
    const uint32_t hi = mmio_.read32(addr + 4);
    RawCapBits out;
    out.bits = (static_cast<uint64_t>(hi) << 32) | lo;
    out.tag = false;
    out.halfTag0 = false;
    out.halfTag1 = false;
    return out;
}

void
PhysicalMemory::mmioWriteCap(uint32_t addr, uint64_t capBits)
{
    // Tags never reach MMIO.
    mmio_.write32(addr, static_cast<uint32_t>(capBits));
    mmio_.write32(addr + 4, static_cast<uint32_t>(capBits >> 32));
}

} // namespace cheriot::mem
