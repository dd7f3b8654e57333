#include "alloc/free_list.h"

#include "util/bits.h"
#include "util/log.h"

namespace cheriot::alloc
{

uint32_t
FreeList::alignPad(uint32_t chunk, uint32_t alignMask)
{
    const uint32_t align = ~alignMask + 1; // Low set bit of the mask.
    if (align <= cap::kCapabilitySize) {
        return 0; // Payloads are always 8-aligned.
    }
    const uint32_t payload = chunk + kPayloadOffset;
    uint32_t pad = alignUp(payload, align) - payload;
    // A nonzero pad must itself form a legal free chunk.
    while (pad != 0 && pad < kMinChunkSize) {
        pad += align;
    }
    return pad;
}

bool
FreeList::fits(uint32_t chunk, uint32_t chunkSize, uint32_t need,
               uint32_t alignMask) const
{
    // A corrupt boundary tag can claim a size past the heap's end;
    // splitting such a chunk would write a header outside the heap.
    // Host-side and uncharged, like forEachChunk's corrupt-tag guard.
    if (uint64_t{chunk} + chunkSize > view_->heapCap().top()) {
        return false;
    }
    const uint32_t pad = alignPad(chunk, alignMask);
    return chunkSize >= pad && chunkSize - pad >= need;
}

void
FreeList::insert(uint32_t chunk, uint32_t size)
{
    // Bin-head access is a load+store of a compartment global.
    view_->guest().chargeExecution(3);
    freeBytes_ += size;
    chunks_++;

    if (isSmall(size)) {
        uint32_t &head = smallBins_[binIndex(size)];
        view_->setFd(chunk, head);
        view_->setBk(chunk, 0);
        if (head != 0) {
            view_->setBk(head, chunk);
        }
        head = chunk;
        return;
    }

    // Sorted insertion into the large list (ascending size).
    uint32_t prev = 0;
    uint32_t cursor = largeHead_;
    while (cursor != 0 && view_->sizeOf(cursor) < size) {
        prev = cursor;
        cursor = view_->fd(cursor);
    }
    view_->setFd(chunk, cursor);
    view_->setBk(chunk, prev);
    if (cursor != 0) {
        view_->setBk(cursor, chunk);
    }
    if (prev != 0) {
        view_->setFd(prev, chunk);
    } else {
        largeHead_ = chunk;
    }
}

void
FreeList::unlink(uint32_t chunk, uint32_t *head)
{
    const uint32_t fd = view_->fd(chunk);
    const uint32_t bk = view_->bk(chunk);
    if (bk != 0) {
        view_->setFd(bk, fd);
    } else {
        *head = fd;
    }
    if (fd != 0) {
        view_->setBk(fd, bk);
    }
}

void
FreeList::remove(uint32_t chunk, uint32_t size)
{
    view_->guest().chargeExecution(3);
    freeBytes_ -= size;
    chunks_--;
    uint32_t *head = isSmall(size) ? &smallBins_[binIndex(size)]
                                   : &largeHead_;
    unlink(chunk, head);
}

uint32_t
FreeList::takeFit(uint32_t size, uint32_t alignMask)
{
    view_->guest().chargeExecution(6); // Bin index + scan setup.

    if (isSmall(size)) {
        // Exact bin first, then progressively larger bins.
        for (uint32_t bin = binIndex(size); bin < kSmallBinCount; ++bin) {
            view_->guest().chargeExecution(1);
            uint32_t chunk = smallBins_[bin];
            while (chunk != 0) {
                const uint32_t chunkSize = view_->sizeOf(chunk);
                if (fits(chunk, chunkSize, size, alignMask)) {
                    remove(chunk, chunkSize);
                    return chunk;
                }
                chunk = view_->fd(chunk);
            }
        }
    }

    // Large list is sorted, so the first fit is the best fit.
    uint32_t chunk = largeHead_;
    while (chunk != 0) {
        const uint32_t chunkSize = view_->sizeOf(chunk);
        if (fits(chunk, chunkSize, size, alignMask)) {
            remove(chunk, chunkSize);
            return chunk;
        }
        chunk = view_->fd(chunk);
    }
    return 0;
}

} // namespace cheriot::alloc
