/**
 * @file
 * Hardware load filter (paper §3.3.2, Fig. 4).
 *
 * Every capability load — from the main pipeline, the RTOS, or a
 * revoker sweep — passes its result through the filter: the *base* of
 * the loaded capability is looked up in the revocation bitmap and, if
 * the bit is set, the tag is stripped before writeback. This
 * maintains the crucial invariant that no capability pointing to
 * freed memory can ever be loaded into a register, which in turn
 * reduces sweeping revocation to a simple load-and-store-back loop.
 *
 * The mechanism relies on spatial safety: the allocator bounds each
 * returned pointer to its object, so every derived usable reference
 * has its base within that object.
 */

#ifndef CHERIOT_REVOKER_LOAD_FILTER_H
#define CHERIOT_REVOKER_LOAD_FILTER_H

#include "cap/capability.h"
#include "revoker/revocation_bitmap.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

namespace cheriot::revoker
{

class LoadFilter
{
  public:
    explicit LoadFilter(const RevocationBitmap *bitmap)
        : bitmap_(bitmap), stats_("load_filter")
    {
        stats_.registerCounter("lookups", lookups);
        stats_.registerCounter("invalidations", invalidations);
    }

    /** Enable/disable (benchmark configurations run with it off). */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /**
     * Filter a freshly loaded capability: returns it with the tag
     * cleared when its base addresses revoked memory.
     */
    cap::Capability filter(const cap::Capability &loaded)
    {
        if (!enabled_ || !loaded.tag() || bitmap_ == nullptr) {
            return loaded;
        }
        lookups++;
        if (bitmap_->isRevoked(loaded.base())) {
            invalidations++;
            return loaded.withTagCleared();
        }
        return loaded;
    }

    /** @name Snapshot state @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.b(self.enabled_);
        a.counter(self.lookups);
        a.counter(self.invalidations);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

    StatGroup &stats() { return stats_; }

    Counter lookups;       ///< Tagged capability loads checked.
    Counter invalidations; ///< Tags stripped by the filter.

  private:
    const RevocationBitmap *bitmap_;
    bool enabled_ = true;
    StatGroup stats_;
};

} // namespace cheriot::revoker

#endif // CHERIOT_REVOKER_LOAD_FILTER_H
