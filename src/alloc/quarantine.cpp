#include "alloc/quarantine.h"

#include "util/log.h"

namespace cheriot::alloc
{

Quarantine::List *
Quarantine::listFor(uint32_t epoch)
{
    for (auto &list : lists_) {
        if (list.active && list.epoch == epoch) {
            return &list;
        }
    }
    for (auto &list : lists_) {
        if (!list.active) {
            list.active = true;
            list.epoch = epoch;
            list.head = 0;
            list.bytes = 0;
            list.chunks = 0;
            return &list;
        }
    }
    // All three lists busy with older epochs: merge the two oldest,
    // conservatively stamping the merged list with the younger epoch
    // (it can only delay reuse, never allow it too early).
    List *oldest = &lists_[0];
    List *second = nullptr;
    for (auto &list : lists_) {
        if (list.epoch < oldest->epoch) {
            oldest = &list;
        }
    }
    for (auto &list : lists_) {
        if (&list != oldest &&
            (second == nullptr || list.epoch < second->epoch)) {
            second = &list;
        }
    }
    // Append oldest's chain onto second's.
    if (oldest->head != 0) {
        uint32_t tail = oldest->head;
        while (view_->fd(tail) != 0) {
            tail = view_->fd(tail);
        }
        view_->setFd(tail, second->head);
        second->head = oldest->head;
    }
    second->bytes += oldest->bytes;
    second->chunks += oldest->chunks;
    oldest->active = true;
    oldest->epoch = epoch;
    oldest->head = 0;
    oldest->bytes = 0;
    oldest->chunks = 0;
    return oldest;
}

void
Quarantine::add(uint32_t chunk, uint32_t size, uint32_t epoch)
{
    List *list = listFor(epoch);
    view_->setFd(chunk, list->head);
    list->head = chunk;
    list->bytes += size;
    list->chunks++;
    totalBytes_ += size;
    totalChunks_++;
    view_->guest().chargeExecution(4);
}

void
Quarantine::drain(uint32_t currentEpoch,
                  const std::function<void(uint32_t, uint32_t)> &release)
{
    for (auto &list : lists_) {
        if (!list.active ||
            !revoker::Revoker::safeToReuse(list.epoch, currentEpoch)) {
            continue;
        }
        uint32_t chunk = list.head;
        while (chunk != 0) {
            const uint32_t next = view_->fd(chunk);
            const uint32_t size = view_->sizeOf(chunk);
            release(chunk, size);
            chunk = next;
        }
        totalBytes_ -= list.bytes;
        totalChunks_ -= list.chunks;
        list = List{};
    }
}

uint32_t
Quarantine::oldestEpoch() const
{
    uint32_t oldest = ~uint32_t{0};
    for (const auto &list : lists_) {
        if (list.active && list.epoch < oldest) {
            oldest = list.epoch;
        }
    }
    return oldest;
}

} // namespace cheriot::alloc
