/**
 * @file
 * Virtual L2 switch: forwards fleet frames between the NIC devices
 * of independently-owned Machine instances.
 *
 * The switch is host-side fabric, not guest-visible state: a Machine
 * only ever sees frames arriving through its own NIC's descriptor
 * rings, exactly as in the single-machine stack. Ports are attached
 * to NicDevices; a frame transmitted by one NIC (captured via the
 * device's TX sink) enters the switch at its port, the MAC-learning
 * table picks the egress port (flooding on unknown/broadcast), and
 * the frame queues on that port's *bounded* egress queue. tick()
 * advances the fabric one round: due frames pass through the egress
 * link's fault model and land in the destination NIC via deliver().
 *
 * Every link owns a LinkFaultModel — a seeded per-link RNG stream
 * (Rng::forStream(switchSeed, portId), the FaultInjector discipline:
 * adding draws on one link never perturbs another) deciding per frame
 * whether the link drops, corrupts, duplicates, reorders or delays
 * it, plus a partition latch (drop everything until healed). Lossy
 * behaviour costs frames, never safety: a corrupted frame is still
 * just bytes, and the receiving guest's firewall checksum is where it
 * dies.
 *
 * A FaultInjector can additionally stall a whole port
 * (FaultSite::SwitchPortStall): the egress queue keeps filling while
 * delivery is frozen, overflow drops count, and the stall expires on
 * its own — an availability fault the ARQ layer above recovers from.
 */

#ifndef CHERIOT_NET_SWITCH_H
#define CHERIOT_NET_SWITCH_H

#include "net/fleet_frame.h"
#include "util/rng.h"

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace cheriot::fault
{
class FaultInjector;
}

namespace cheriot::net
{

class NicDevice;

/** Per-link lossiness knobs, each a permille probability per frame. */
struct LinkFaultConfig
{
    uint32_t dropPermille = 0;
    uint32_t corruptPermille = 0;   ///< One flipped bit per corruption.
    uint32_t duplicatePermille = 0; ///< Frame delivered twice.
    uint32_t reorderPermille = 0;   ///< Swapped with the next due frame.
    /** Held back 1..LinkFaultModel::kMaxDelayTicks switch ticks. */
    uint32_t delayPermille = 0;

    bool lossless() const
    {
        return dropPermille == 0 && corruptPermille == 0 &&
               duplicatePermille == 0 && reorderPermille == 0 &&
               delayPermille == 0;
    }
};

/**
 * The seeded fault state of one link. All randomness comes from the
 * link's own stream, so a fleet campaign is reproducible bit-for-bit
 * from (switchSeed, linkId) regardless of what other links carry.
 */
class LinkFaultModel
{
  public:
    LinkFaultModel(uint64_t switchSeed, uint32_t linkId)
        : rng_(Rng::forStream(switchSeed, linkId))
    {}

    LinkFaultConfig config;
    bool partitioned = false;
    /** Directional partition halves: txBlocked eats frames the port's
     * node transmits (others never hear it); rxBlocked eats frames
     * destined for it (it hears nothing). `partitioned` is both. */
    bool txBlocked = false;
    bool rxBlocked = false;

    bool ingressBlocked() const { return partitioned || txBlocked; }
    bool egressBlocked() const { return partitioned || rxBlocked; }

    bool roll(uint32_t permille)
    {
        return permille != 0 && rng_.chance(permille, 1000);
    }
    /** Longest hold-back of a delayed frame, in switch ticks. */
    static constexpr uint32_t kMaxDelayTicks = 4;

    uint32_t delayTicks() { return 1 + rng_.below(kMaxDelayTicks); }
    /** Pick the bit to flip in a corrupted frame of @p bytes. */
    uint32_t corruptBit(uint32_t bytes)
    {
        return rng_.below(bytes * 8);
    }

  private:
    Rng rng_;
};

class VirtualSwitch
{
  public:
    /** @param maxQueueDepth bound on each port's egress queue; the
     * overflow drop counter is the congestion signal. */
    explicit VirtualSwitch(uint64_t seed, uint32_t maxQueueDepth = 64)
        : seed_(seed), maxQueueDepth_(maxQueueDepth)
    {}

    /** Wire a new port to @p nic (may be null for a sniffer port);
     * returns the port id. */
    uint32_t addPort(NicDevice *nic);
    /** Re-point a port at a fresh NIC (device restarted). */
    void attachNic(uint32_t port, NicDevice *nic);
    uint32_t portCount() const
    {
        return static_cast<uint32_t>(ports_.size());
    }

    /**
     * A frame enters the fabric at @p port: learn the source MAC,
     * pick the egress port(s) and enqueue. Frames from or to a
     * partitioned port drop here.
     */
    void ingress(uint32_t port, const uint8_t *frame, uint32_t bytes);

    /**
     * Advance the fabric one round: expire stalls, then deliver every
     * due frame through its egress link's fault model into the
     * attached NIC.
     */
    void tick();
    uint64_t now() const { return now_; }

    /** @name Link fault control (chaos engine / tests) @{ */
    void setLinkFaults(uint32_t port, const LinkFaultConfig &config);
    const LinkFaultConfig &linkFaults(uint32_t port) const;
    /** Partition @p port from the fabric (drop both directions)
     * until healed. */
    void setPartitioned(uint32_t port, bool isolated);
    bool partitioned(uint32_t port) const;
    /**
     * Asymmetric partition: block only one direction of @p port's
     * link. @p txBlocked eats everything the attached node sends
     * (the rest of the fabric goes deaf to it); @p rxBlocked eats
     * everything addressed to it (the node itself goes deaf).
     */
    void setDirectionalPartition(uint32_t port, bool txBlocked,
                                 bool rxBlocked);
    /** Freeze @p port's egress for @p ticks rounds. */
    void stallPort(uint32_t port, uint32_t ticks);
    /** Armed SwitchPortStall plans fire through this injector. */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }
    /** @} */

    /** MAC table lookup (tests); -1 when unlearned. */
    int32_t learnedPort(uint32_t mac) const;

    /** Per-port counters. */
    struct PortCounters
    {
        uint64_t ingressFrames = 0;
        uint64_t forwarded = 0;  ///< Delivered into the attached NIC.
        uint64_t flooded = 0;    ///< Copies enqueued by flooding.
        uint64_t queueDrops = 0; ///< Bounded-queue overflow drops.
        uint64_t faultDrops = 0; ///< LinkFaultModel drop rolls.
        uint64_t corrupted = 0;
        uint64_t duplicated = 0;
        uint64_t reordered = 0;
        uint64_t delayed = 0;
        uint64_t partitionDrops = 0;
        uint64_t stallTicks = 0;
        uint64_t nicBackpressure = 0; ///< deliver() refused the frame.
    };
    const PortCounters &counters(uint32_t port) const
    {
        return ports_.at(port).counters;
    }
    uint64_t totalDelivered() const { return totalDelivered_; }
    /** Frames sitting in egress queues (the fleet drain probe). */
    uint64_t queuedFrames() const
    {
        uint64_t total = 0;
        for (const Port &port : ports_) {
            total += port.queue.size();
        }
        return total;
    }
    uint64_t seed() const { return seed_; }

  private:
    struct QueuedFrame
    {
        std::vector<uint8_t> bytes;
        uint64_t dueTick = 0;
    };

    struct Port
    {
        Port(NicDevice *device, uint64_t switchSeed, uint32_t id)
            : nic(device), link(switchSeed, id)
        {}
        NicDevice *nic;
        LinkFaultModel link;
        std::deque<QueuedFrame> queue;
        uint32_t stallTicksLeft = 0;
        PortCounters counters;
    };

    void enqueue(uint32_t port, const uint8_t *frame, uint32_t bytes);
    /** Deliver one frame through @p port's link fault model. */
    void deliverThroughLink(Port &port, std::vector<uint8_t> frame);
    void deliverToNic(Port &port, const std::vector<uint8_t> &frame);

    uint64_t seed_;
    uint32_t maxQueueDepth_;
    uint64_t now_ = 0;
    uint64_t totalDelivered_ = 0;
    std::vector<Port> ports_;
    std::unordered_map<uint32_t, uint32_t> macTable_;
    fault::FaultInjector *injector_ = nullptr;
};

} // namespace cheriot::net

#endif // CHERIOT_NET_SWITCH_H
