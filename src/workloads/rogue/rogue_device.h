/**
 * @file
 * Byzantine fleet device: a host-side forger that writes raw frames
 * straight into its node's outbox, bypassing the node's own network
 * stack entirely — the threat model where a compromised device still
 * owns its NIC but none of the protocol discipline above it.
 *
 * The attack mix, all from one seeded stream:
 *
 *  - data floods: well-formed, checksum-balanced Data frames with
 *    incrementing sequence numbers — pressure on the firewall's token
 *    bucket and the victims' ack path;
 *  - stale-epoch replays: Data frames stamped with a *superseded*
 *    incarnation epoch — the replay the ARQ epoch rule exists for;
 *  - malformed frames: valid checksum, nonsense frame type — past the
 *    integrity check, dead at typed admission;
 *  - oversized frames: longer than the firewall rule allows;
 *  - SYN floods with churning flow ids and bogus advertised state —
 *    flow-table pressure bounded by the table capacity and typed resets;
 *  - bogus window credits for flows that do not exist;
 *  - bad-checksum junk, which must die at the integrity check without
 *    costing the (unattributable) source a strike.
 *
 * Every forged frame carries the rogue's real source MAC, so the
 * firewall's per-device strike counter converges on it: local
 * quarantine within the strike budget, then fleet-level escalation
 * partitions the port. Containment, not crash.
 */

#ifndef CHERIOT_WORKLOADS_ROGUE_ROGUE_DEVICE_H
#define CHERIOT_WORKLOADS_ROGUE_ROGUE_DEVICE_H

#include "util/rng.h"

#include <cstdint>
#include <vector>

namespace cheriot::workloads
{

struct RogueConfig
{
    uint32_t startRound = 4;
    uint32_t endRound = 64;       ///< Attack window [start, end).
    uint32_t framesPerRound = 6;  ///< Forged frames per round.
    uint32_t oversizeWords = 120; ///< Payload words of an oversize.
};

class RogueDevice
{
  public:
    RogueDevice(uint32_t mac, uint64_t seed, RogueConfig config = {});

    /**
     * Forge this round's frames into @p outbox (the owning node's TX
     * outbox; the fleet's serial phase carries them onto the fabric).
     * @p fleetMacs is the count of nodes; victims are picked from the
     * other MACs, seeded.
     */
    void emit(uint32_t round,
              std::vector<std::vector<uint8_t>> &outbox,
              uint32_t fleetMacs);

    /** @name Attack accounting (bench reporting) @{ */
    uint64_t forged() const { return forged_; }
    uint64_t floods() const { return floods_; }
    uint64_t staleReplays() const { return staleReplays_; }
    uint64_t malformed() const { return malformed_; }
    uint64_t oversized() const { return oversized_; }
    uint64_t bogusSyns() const { return bogusSyns_; }
    uint64_t bogusWindows() const { return bogusWindows_; }
    uint64_t badChecksums() const { return badChecksums_; }
    /** @} */

  private:
    uint32_t pickVictim(uint32_t fleetMacs);

    uint32_t mac_;
    RogueConfig config_;
    Rng rng_;
    uint32_t floodSeq_ = 0;

    uint64_t forged_ = 0;
    uint64_t floods_ = 0;
    uint64_t staleReplays_ = 0;
    uint64_t malformed_ = 0;
    uint64_t oversized_ = 0;
    uint64_t bogusSyns_ = 0;
    uint64_t bogusWindows_ = 0;
    uint64_t badChecksums_ = 0;
};

} // namespace cheriot::workloads

#endif // CHERIOT_WORKLOADS_ROGUE_ROGUE_DEVICE_H
