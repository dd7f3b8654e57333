/**
 * @file
 * Epoch-stamped quarantine lists (paper §5.1).
 *
 * Freed chunks are not returned to the free lists immediately: they
 * sit in a quarantine list stamped with the revocation epoch at which
 * they were freed. A chunk may be reused only after a complete
 * revocation sweep has run since its bits were painted — at which
 * point no stale capability to it can exist anywhere in memory
 * (§3.3.2's invariant). The allocator tracks at most three lists with
 * distinct epochs; if a fourth is needed the two oldest merge
 * (conservatively keeping the younger stamp).
 *
 * Lists are linked through the quarantined chunks' fd capabilities in
 * simulated memory; the link targets are chunk headers, whose
 * revocation bits are never painted, so the links survive sweeps.
 */

#ifndef CHERIOT_ALLOC_QUARANTINE_H
#define CHERIOT_ALLOC_QUARANTINE_H

#include "alloc/chunk.h"
#include "revoker/revoker.h"
#include "snapshot/serializer.h"

#include <array>
#include <cstdint>
#include <functional>

namespace cheriot::alloc
{

class Quarantine
{
  public:
    explicit Quarantine(ChunkView &view) : view_(&view) {}

    /** Add a freed chunk under the current @p epoch. */
    void add(uint32_t chunk, uint32_t size, uint32_t epoch);

    /**
     * Release every chunk whose quarantine epoch is provably covered
     * by a completed sweep at @p currentEpoch, invoking @p release
     * for each (in no particular order).
     */
    void drain(uint32_t currentEpoch,
               const std::function<void(uint32_t chunk, uint32_t size)>
                   &release);

    /** Bytes currently held in quarantine. */
    uint64_t bytes() const { return totalBytes_; }
    uint32_t chunkCount() const { return totalChunks_; }
    bool empty() const { return totalChunks_ == 0; }

    /** Oldest epoch stamp held, or ~0u when empty. */
    uint32_t oldestEpoch() const;

    /** Distinct epoch lists currently in use (≤ kMaxLists). */
    unsigned activeListCount() const
    {
        unsigned count = 0;
        for (const auto &list : lists_) {
            count += list.active ? 1 : 0;
        }
        return count;
    }

    /** @name Snapshot state (list heads; links live in guest SRAM) @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        for (auto &list : self.lists_) {
            a.b(list.active);
            a.u32(list.epoch);
            a.u32(list.head);
            a.u64(list.bytes);
            a.u32(list.chunks);
        }
        a.u64(self.totalBytes_);
        a.u32(self.totalChunks_);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

  private:
    struct List
    {
        bool active = false;
        uint32_t epoch = 0;
        uint32_t head = 0;
        uint64_t bytes = 0;
        uint32_t chunks = 0;
    };

    static constexpr unsigned kMaxLists = 3;

    List *listFor(uint32_t epoch);

    ChunkView *view_;
    std::array<List, kMaxLists> lists_;
    uint64_t totalBytes_ = 0;
    uint32_t totalChunks_ = 0;
};

} // namespace cheriot::alloc

#endif // CHERIOT_ALLOC_QUARANTINE_H
