/**
 * @file
 * Data-bus width models (paper §4).
 *
 * Flute has a 65-bit memory bus (64 data bits plus the tag), so a
 * capability moves in one beat. CHERIoT-Ibex keeps the original Ibex
 * 32-bit interface widened only to 33 bits (32 data + a micro-tag),
 * so a capability needs two beats; this is why capability-heavy code
 * shows larger overheads on Ibex (Table 3) and why zeroing is
 * proportionately more expensive there (§7.2.2).
 */

#ifndef CHERIOT_MEM_BUS_H
#define CHERIOT_MEM_BUS_H

#include "snapshot/serializer.h"
#include "util/stats.h"

#include <cstdint>

namespace cheriot::fault
{
class FaultInjector;
}

namespace cheriot::mem
{

/** Width of the data bus between core and tightly coupled SRAM. */
enum class BusWidth : uint8_t
{
    Wide65,   ///< 64-bit data + tag (Flute).
    Narrow33, ///< 32-bit data + micro-tag (Ibex).
};

/** Bus beats to move one capability (8 bytes + tag). */
constexpr unsigned
capBeats(BusWidth width)
{
    return width == BusWidth::Wide65 ? 1 : 2;
}

/** Bus beats to move @p bytes of ordinary data (max 8). */
constexpr unsigned
dataBeats(BusWidth width, unsigned bytes)
{
    const unsigned beatBytes = width == BusWidth::Wide65 ? 8 : 4;
    return (bytes + beatBytes - 1) / beatBytes;
}

/** Bus beats to zero @p bytes of memory. */
constexpr unsigned
zeroBeats(BusWidth width, uint32_t bytes)
{
    const unsigned beatBytes = width == BusWidth::Wide65 ? 8 : 4;
    return (bytes + beatBytes - 1) / beatBytes;
}

const char *busWidthName(BusWidth width);

/** Outcome of one bus transaction through the retry machinery. */
struct BusResult
{
    bool ok = true;           ///< False: retries exhausted (bus error).
    uint32_t extraCycles = 0; ///< Cycles beyond the fault-free cost.
    uint32_t retries = 0;     ///< Replays performed.
};

/**
 * Transaction-level bus model with bounded retry + backoff.
 *
 * The fault-free path is free: timing stays exactly the beat counts
 * the cycle model already charges. When a fault injector reports a
 * dropped transaction the initiator replays it, doubling a small
 * backoff each attempt (glitches from e.g. supply noise are bursty,
 * so immediate replay tends to fail again); after kMaxRetries the
 * transaction errors out and the core sees an access fault. Late
 * (delayed) transactions simply stretch the port-busy window.
 */
class Bus
{
  public:
    /** Replays before a transaction is declared dead. */
    static constexpr uint32_t kMaxRetries = 4;
    /** First-retry backoff in cycles; doubles per attempt. */
    static constexpr uint32_t kBackoffBase = 2;

    explicit Bus(BusWidth width) : width_(width)
    {
        stats_.registerCounter("transactions", transactions);
        stats_.registerCounter("retries", retries);
        stats_.registerCounter("delayCycles", delayCycles);
        stats_.registerCounter("errors", errors);
        stats_.registerCounter("beats", beats);
    }

    BusWidth width() const { return width_; }

    /**
     * Run one transaction of @p beats beats. @p injector may inject
     * drops (replayed with backoff) or latency; null means fault-free.
     */
    BusResult transact(unsigned beats, fault::FaultInjector *injector);

    /** @name Snapshot state (the bus itself is stateless; counters) @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.counter(self.transactions);
        a.counter(self.retries);
        a.counter(self.delayCycles);
        a.counter(self.errors);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

    Counter transactions; ///< Transactions initiated.
    Counter retries;      ///< Replays after drops.
    Counter delayCycles;  ///< Cycles lost to delays and backoff.
    Counter errors;       ///< Transactions that exhausted retries.
    /** Data beats moved on the core's load-store port. Diagnostic
     * only — not serialized, so snapshot layout and determinism
     * digests are unchanged. */
    Counter beats;

    StatGroup &stats() { return stats_; }

  private:
    BusWidth width_;
    StatGroup stats_{"bus"};
};

} // namespace cheriot::mem

#endif // CHERIOT_MEM_BUS_H
