#include "revoker/revocation_bitmap.h"

#include "util/bits.h"
#include "util/log.h"

namespace cheriot::revoker
{

RevocationBitmap::RevocationBitmap(uint32_t heapBase, uint32_t heapSize)
    : heapBase_(heapBase), heapSize_(heapSize)
{
    if (heapBase % kGranule != 0 || heapSize % kGranule != 0) {
        fatal("heap window [0x%08x, +0x%x) not aligned to granule %u",
              heapBase, heapSize, kGranule);
    }
    const uint32_t bitCount = heapSize / kGranule;
    words_.assign((bitCount + 31) / 32, 0);
    stats_.registerCounter("lookups", lookups);
}

void
RevocationBitmap::setRange(uint32_t addr, uint32_t bytes)
{
    if (bytes == 0) {
        return;
    }
    if (!covers(addr) || !covers(addr + bytes - 1)) {
        panic("setRange [0x%08x, +%u) outside heap window", addr, bytes);
    }
    const uint32_t first = bitIndexOf(addr);
    const uint32_t last = bitIndexOf(addr + bytes - 1);
    for (uint32_t index = first; index <= last; ++index) {
        words_[index / 32] |= uint32_t{1} << (index % 32);
    }
}

void
RevocationBitmap::clearRange(uint32_t addr, uint32_t bytes)
{
    if (bytes == 0) {
        return;
    }
    if (!covers(addr) || !covers(addr + bytes - 1)) {
        panic("clearRange [0x%08x, +%u) outside heap window", addr, bytes);
    }
    const uint32_t first = bitIndexOf(addr);
    const uint32_t last = bitIndexOf(addr + bytes - 1);
    for (uint32_t index = first; index <= last; ++index) {
        words_[index / 32] &= ~(uint32_t{1} << (index % 32));
    }
}

uint32_t
RevocationBitmap::paintedBits() const
{
    uint32_t count = 0;
    for (uint32_t word : words_) {
        count += popcount(word);
    }
    return count;
}

uint32_t
RevocationBitmap::read32(uint32_t offset)
{
    const uint32_t index = offset / 4;
    if (index >= words_.size()) {
        panic("revocation bitmap read at offset 0x%x out of range", offset);
    }
    return words_[index];
}

void
RevocationBitmap::write32(uint32_t offset, uint32_t value)
{
    const uint32_t index = offset / 4;
    if (index >= words_.size()) {
        panic("revocation bitmap write at offset 0x%x out of range", offset);
    }
    words_[index] = value;
}

} // namespace cheriot::revoker
