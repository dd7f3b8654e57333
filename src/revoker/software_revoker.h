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

namespace cheriot::revoker
{

/**
 * Memory and timing services the software revoker needs from the
 * platform. Implemented by the RTOS guest context so that sweeps go
 * through the real load filter and are charged real cycles.
 */
class SweepPort
{
  public:
    virtual ~SweepPort() = default;

    /** Capability load through the load filter; charges cycles. */
    virtual cap::Capability sweepLoadCap(uint32_t addr) = 0;

    /** Capability store; charges cycles. */
    virtual void sweepStoreCap(uint32_t addr, const cap::Capability &value) = 0;

    /** Charge @p instructions of register-register work. */
    virtual void sweepChargeExecution(uint32_t instructions) = 0;

    /**
     * Batch boundary: re-enable interrupts briefly so the system
     * stays responsive (the revoker "disables interrupts to
     * incrementally sweep parts of memory with a reasonable batch
     * size").
     */
    virtual void sweepInterruptWindow() = 0;

    /**
     * Charge the load-to-use bubble a store immediately following
     * its load suffers — incurred only when the sweep loop is not
     * unrolled (§3.3.2: "this loop is unrolled to load two
     * capabilities, avoiding the pipeline bubbles").
     */
    virtual void sweepLoadToUseStall() = 0;
};

class SoftwareRevoker : public Revoker
{
  public:
    /**
     * @param port        platform services.
     * @param sweepBase   first byte of the swept window.
     * @param sweepSize   bytes to sweep (multiple of 8).
     * @param batchWords  capability words per interrupts-off batch.
     * @param unroll      loop unrolling factor (≥ 1; paper uses 2).
     */
    SoftwareRevoker(SweepPort &port, uint32_t sweepBase, uint32_t sweepSize,
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
    SweepPort &port_;
    uint32_t sweepBase_;
    uint32_t sweepSize_;
    uint32_t batchWords_;
    uint32_t unroll_;
    uint32_t epoch_ = 0;
    StatGroup stats_;
};

} // namespace cheriot::revoker

#endif // CHERIOT_REVOKER_SOFTWARE_REVOKER_H
