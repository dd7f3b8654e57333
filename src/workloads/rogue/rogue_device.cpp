#include "workloads/rogue/rogue_device.h"

#include "net/fleet_frame.h"
#include "net/flow.h"

namespace cheriot::workloads
{

using net::buildFleetFrame;
using net::FleetFrameHeader;
using net::FleetFrameType;
using net::FlowKind;

namespace
{
constexpr uint64_t kStreamRogue = 0x406e;
/** Epoch the flood claims; replays claim the one before. */
constexpr uint32_t kClaimedEpoch = 2;
} // namespace

RogueDevice::RogueDevice(uint32_t mac, uint64_t seed,
                         RogueConfig config)
    : mac_(mac), config_(config),
      rng_(Rng::forStream(seed, kStreamRogue + mac))
{}

uint32_t
RogueDevice::pickVictim(uint32_t fleetMacs)
{
    // Uniform over the other MACs (MACs are 1..fleetMacs).
    uint32_t victim = 1 + rng_.below(fleetMacs > 1 ? fleetMacs - 1 : 1);
    if (victim >= mac_) {
        victim++;
    }
    return victim;
}

void
RogueDevice::emit(uint32_t round,
                  std::vector<std::vector<uint8_t>> &outbox,
                  uint32_t fleetMacs)
{
    if (round < config_.startRound || round >= config_.endRound ||
        fleetMacs < 2) {
        return;
    }
    for (uint32_t n = 0; n < config_.framesPerRound; ++n) {
        const uint32_t dst = pickVictim(fleetMacs);
        FleetFrameHeader header;
        header.dst = dst;
        header.src = mac_;
        std::vector<uint8_t> frame;
        switch (rng_.below(7)) {
        case 0:
        case 1: {
            // Flood: well-formed data, fresh sequence numbers. Dies
            // at the token bucket once the burst is spent.
            header.type = FleetFrameType::Data;
            header.seq = (kClaimedEpoch << 24) |
                         (floodSeq_++ & 0xffffffu);
            frame = buildFleetFrame(
                header, {0xf100d000u + n, round, rng_.next(), 0});
            floods_++;
            break;
        }
        case 2: {
            // Stale-epoch replay: a frame from a superseded
            // incarnation. Typed stale-epoch drop plus a strike.
            header.type = FleetFrameType::Data;
            header.seq = ((kClaimedEpoch - 1) << 24) | rng_.below(64);
            frame = buildFleetFrame(header,
                                    {0x57a1eu, round, rng_.next(), 0});
            staleReplays_++;
            break;
        }
        case 3: {
            // Malformed: the checksum balances but the type is junk.
            header.type = static_cast<FleetFrameType>(0x7f);
            header.seq = rng_.next();
            frame = buildFleetFrame(header, {0xbad0bad0u, round});
            malformed_++;
            break;
        }
        case 4: {
            // Oversized: longer than any honest rule allows.
            header.type = FleetFrameType::Data;
            header.seq = (kClaimedEpoch << 24) |
                         (floodSeq_++ & 0xffffffu);
            std::vector<uint32_t> payload(config_.oversizeWords,
                                          0x0b0e5e1du);
            frame = buildFleetFrame(header, payload);
            oversized_++;
            break;
        }
        case 5: {
            // Flow-level abuse: SYN churn with bogus ids/epochs, or a
            // window credit for a flow that does not exist.
            header.type = FleetFrameType::Data;
            header.seq = (kClaimedEpoch << 24) |
                         (floodSeq_++ & 0xffffffu);
            if (rng_.below(2) == 0) {
                const uint32_t id = rng_.below(0x10000);
                const uint32_t epoch = rng_.below(0x10000);
                frame = buildFleetFrame(
                    header,
                    {net::flowHeaderWord(
                         static_cast<uint8_t>(FlowKind::Syn), 0),
                     (id << 16) | epoch, 0, 0});
                bogusSyns_++;
            } else {
                const uint32_t id = rng_.below(0x10000);
                frame = buildFleetFrame(
                    header,
                    {net::flowHeaderWord(
                         static_cast<uint8_t>(FlowKind::Window), 2),
                     (id << 16) | 0xffffu, 0, 0});
                bogusWindows_++;
            }
            break;
        }
        default: {
            // Junk bytes: must die at the checksum, and must NOT
            // strike anyone — an unbalanced frame's source field is
            // exactly as trustworthy as the rest of it.
            header.type = FleetFrameType::Data;
            header.seq = rng_.next();
            frame = buildFleetFrame(header, {rng_.next(), rng_.next()});
            frame[12] ^= 0x5a; // Break the balance.
            badChecksums_++;
            break;
        }
        }
        outbox.push_back(std::move(frame));
        forged_++;
    }
}

} // namespace cheriot::workloads
