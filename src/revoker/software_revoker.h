/**
 * @file
 * Software sweeping revocation (paper §3.3.2).
 *
 * With the load filter in place, revocation is a simple loop that
 * loads every capability-sized word in the swept window and stores it
 * back: the filter strips tags of stale capabilities on the way
 * through the register file. The loop body must be atomic with
 * respect to other code (interrupts disabled), but the loop may be
 * preempted between batches; it is unrolled (by two, by default) to
 * hide the one-cycle load-to-use delay.
 */

#ifndef CHERIOT_REVOKER_SOFTWARE_REVOKER_H
#define CHERIOT_REVOKER_SOFTWARE_REVOKER_H

#include "cap/capability.h"
#include "revoker/revoker.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

#include <cstdint>

namespace cheriot::sim
{
class Machine;
}

namespace cheriot::revoker
{

class SoftwareRevoker : public Revoker
{
  public:
    /**
     * @param machine     the machine whose checked capability loads
     *                    and stores the sweep runs through, so every
     *                    word passes the real load filter and is
     *                    charged real cycles.
     * @param authority   capability authorising the sweep's loads and
     *                    stores (load/store capability and SL).
     * @param sweepBase   first byte of the swept window.
     * @param sweepSize   bytes to sweep (multiple of 8).
     * @param batchWords  capability words per interrupts-off batch.
     * @param unroll      loop unrolling factor (≥ 1; paper uses 2).
     */
    SoftwareRevoker(sim::Machine &machine, const cap::Capability &authority,
                    uint32_t sweepBase, uint32_t sweepSize,
                    uint32_t batchWords = 64, uint32_t unroll = 2);

    uint32_t epoch() const override { return epoch_; }
    void requestSweep() override;
    void waitForCompletion() override {}
    const char *kind() const override { return "software"; }

    /** @name Snapshot state (epoch + counters; sweeps themselves are
     * synchronous, so none is ever in flight at a snapshot point) @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.u32(self.epoch_);
        a.counter(self.sweeps);
        a.counter(self.wordsSwept);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

    Counter sweeps;      ///< Completed sweep passes.
    Counter wordsSwept;  ///< Capability words loaded + stored back.

    StatGroup &stats() { return stats_; }

  private:
    sim::Machine &machine_;
    cap::Capability authority_;
    uint32_t sweepBase_;
    uint32_t sweepSize_;
    uint32_t batchWords_;
    uint32_t unroll_;
    uint32_t epoch_ = 0;
    StatGroup stats_;
};

} // namespace cheriot::revoker

#endif // CHERIOT_REVOKER_SOFTWARE_REVOKER_H
