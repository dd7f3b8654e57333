/**
 * @file
 * Compartmentalized zero-copy network stack over the NIC.
 *
 * Two guest compartments own the receive path:
 *
 *  - `net_driver` — the *sole* importer of the NIC MMIO window (the
 *    audit manifest records that authority; cheriot-verify's default
 *    policy lints it). It allocates the descriptor rings and per-slot
 *    packet buffers from the shared heap, posts them to the device,
 *    and on every pump consumes DONE descriptors, cross-checking each
 *    against its own slot table — descriptor bytes are device-written
 *    data and carry no authority, so a corrupted descriptor can at
 *    worst lose a packet, never widen a capability.
 *
 *  - `firewall` — the parser. The driver lends it each landed packet
 *    as a *bounded, Global-less* capability: zero-copy, but holdable
 *    only in registers and on the (wiped) stack (§2.6, §5.2). The
 *    firewall `claim()`s the buffer so it survives the driver's own
 *    free (CHERIoT's heap_claim lending contract: the *last* release
 *    quarantines, not the first), validates the frame checksum, and
 *    hands the payload on to its consumers — mutating consumers (TLS
 *    decrypts records in place) get the write-capable view, everyone
 *    downstream gets a read-only one.
 *
 * Backpressure is physical: a consumed slot is reposted only after a
 * successful refill malloc, so when the heap is exhausted (or
 * quarantine is holding memory hostage) the ring shrinks until the
 * NIC starts dropping — the drop counter and the heap-pressure MMIO
 * window feed the PR-3 admission-gate machinery. The refill wait is
 * *bounded*: a typed RefillResult::Timeout (mirroring the PR-2
 * MessageQueueService pattern) caps how long a pump can stall on an
 * exhausted heap before yielding with the ring short.
 *
 * Reliable mode (the fleet ARQ layer, firewall-owned): between the
 * checksum and the consumers sits a selective-repeat protocol over
 * fleet frames (net/fleet_frame.h). Senders number data frames per
 * peer, hold them for retransmission with capped exponential backoff,
 * and declare a peer dead after the retry budget — degrading that
 * destination to local buffering (a bounded backlog) with periodic
 * probes; any frame heard from the peer rejoins it and the backlog
 * drains. Receivers ack every data frame (including duplicates) and
 * deduplicate through a window that exceeds the sender's in-flight
 * span, so consumers see each message exactly once per receiver
 * incarnation no matter what the link duplicates or reorders. A
 * corrupted frame never gets this far: the checksum rejects it while
 * it is still untrusted bytes.
 */

#ifndef CHERIOT_NET_NET_STACK_H
#define CHERIOT_NET_NET_STACK_H

#include "alloc/quota.h"
#include "net/fleet_frame.h"
#include "net/nic_device.h"
#include "rtos/compartment.h"
#include "snapshot/serializer.h"

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

namespace cheriot::rtos
{
class Kernel;
class Thread;
} // namespace cheriot::rtos

namespace cheriot::net
{

/**
 * Build a deterministic test frame: little-endian words derived from
 * @p seq with a trailing checksum word that XORs the whole frame to
 * zero. @p bytes is rounded up to a whole number of words, minimum 8.
 */
std::vector<uint8_t> buildFrame(uint32_t seq, uint32_t bytes);

/** The net compartments plus the NIC window capability (minted
 * before boot; the loader refuses new roots afterwards). */
struct NetCompartments
{
    rtos::Compartment *driver = nullptr;
    rtos::Compartment *firewall = nullptr;
    cap::Capability nicWindow;
};

/** Create `net_driver` (importing the NIC MMIO window by name) and
 * `firewall`. Call before Kernel::finalizeBoot — the import is part
 * of the audited image. */
NetCompartments addNetCompartments(rtos::Kernel &kernel);

/** A downstream packet consumer: an export called as (payload, len).
 * Mutating consumers receive the writable view of the buffer. */
struct NetConsumer
{
    rtos::Import import;
    bool mutates = false;
};

/**
 * One declarative firewall admission rule. A frame is matched by
 * (source device, flow class); the first matching rule supplies the
 * device's token bucket and in-flight budget. Wildcards: srcMac 0
 * matches any device, flowClass 0xff matches any class.
 */
struct FirewallRule
{
    uint32_t srcMac = 0;      ///< 0 = any device.
    uint32_t flowClass = 0xff; ///< 0xff = any class.
    /** Token-bucket refill: data frames admitted per 1024 cycles,
     * in 1/256 frame units (256 = one frame per 1024 cycles). */
    uint32_t ratePer1KCycles256 = 16 * 256;
    uint32_t burstFrames = 32; ///< Bucket capacity.
    /** Ceiling on bytes this device may have in flight downstream
     * (charged against the stack's quota ledger at admission and by
     * the broker for queue residency). */
    uint64_t maxInflightBytes = 16 * 1024;
    /** Frames longer than this are an oversize violation. */
    uint32_t maxFrameBytes = 1536;
};

/**
 * Per-flow firewall admission (off by default: the plain PR-5/PR-6
 * stack behaves exactly as before). When enabled, every reliable-mode
 * frame passes rule lookup, token-bucket rate limiting and in-flight
 * quota accounting before it can touch ARQ state; violations get a
 * typed reject, cost the device a strike, and enough strikes
 * quarantine the device locally (every frame dropped) — the signal
 * the fleet runner escalates to fabric-level quarantine.
 */
struct FirewallConfig
{
    bool admission = false;
    uint32_t strikeBudget = 8;
    bool defaultDeny = false; ///< No matching rule: drop (and strike).
    std::vector<FirewallRule> rules;
};

struct NetStackConfig
{
    uint32_t rxRingEntries = 8;
    uint32_t txRingEntries = 4;
    /** Per-slot buffer capacity (heap allocation size). */
    uint32_t bufBytes = 1536;
    /** Firewall transmits an ack for every Nth accepted packet
     * (0 = never; unused in reliable mode, where every data frame is
     * acked individually): the TX direction of the claim contract. */
    uint32_t ackEveryN = 16;
    /** Bounded refill wait before a typed timeout (satellite of the
     * MessageQueueService bounded-block discipline). */
    uint64_t refillTimeoutCycles = 4096;

    /** @name Reliable-delivery (ARQ) layer @{ */
    bool reliable = false; ///< Parse fleet frames, run the ARQ.
    uint32_t localMac = 0; ///< This node's fleet id.
    /** Sender incarnation, stamped into the sequence-number high
     * byte. A restarted node announces itself through a new epoch, so
     * receivers restart their dedup window instead of mistaking the
     * fresh seq 0 for a stale duplicate (by sequence alone the two
     * are indistinguishable when little history exists). */
    uint32_t arqEpoch = 0;
    /** Max in-flight (unacked) data frames per peer. Must stay below
     * the receiver's dedup window (kArqDedupWindow) so a live sender
     * can never outrun its dedup span — only a receiver restart
     * slides the window. */
    uint32_t arqWindow = 16;
    uint64_t arqRtoStartCycles = 2048; ///< First retransmit timeout.
    uint64_t arqRtoCapCycles = 32768;  ///< Backoff doubling cap.
    /** Retries before the peer is presumed dead and the destination
     * degrades to local buffering + probes. */
    uint32_t arqMaxRetries = 8;
    uint64_t arqProbeIntervalCycles = 8192;
    /** @} */

    /** Per-flow admission rules (reliable mode only). */
    FirewallConfig firewall;
};

class NetStack
{
  public:
    /** Typed outcome of one RX slot refill. */
    enum class RefillResult : uint8_t
    {
        Ok = 0,
        Timeout, ///< Heap stayed exhausted past the bounded wait.
    };
    /** Refill backoff schedule (the MessageQueueService constants). */
    static constexpr uint32_t kRefillBackoffStartCycles = 16;
    static constexpr uint32_t kRefillBackoffCapCycles = 1024;

    /** Typed firewall admission outcome (reliable mode). */
    enum class AdmitResult : uint8_t
    {
        Ok = 0,
        Quarantined,      ///< Device already struck out; frame dropped.
        RateLimited,      ///< Token bucket empty.
        InflightExceeded, ///< In-flight byte quota denied the charge.
        Oversized,        ///< Frame longer than the rule allows.
        Malformed,        ///< Valid checksum, nonsense frame type.
        NoRule,           ///< defaultDeny and nothing matched.
    };
    /** Retransmit histogram buckets: retries 0..7, then 8+. */
    static constexpr uint32_t kRetxHistogramBuckets = 9;
    /** sendBody flag bit: build an Unreliable frame (no ARQ state). */
    static constexpr uint32_t kSendUnreliableFlag = 0x80000000u;

    NetStack(rtos::Kernel &kernel, NicDevice &nic,
             const NetCompartments &compartments,
             NetStackConfig config = {});

    /** Add the driver/firewall exports and resolve imports. Call
     * after finalizeBoot (entry bodies are not part of the audited
     * structure), before start(). */
    void connect(const std::vector<NetConsumer> &consumers);

    /** Allocate rings and buffers, program and enable the NIC. Part
     * of the deterministic boot: runs before any snapshot restore. */
    void start(rtos::Thread &thread);

    /** Drain completed RX/TX descriptors — a real cross-compartment
     * call into the driver — then, in reliable mode, run the ARQ
     * service pass (backlog flush, retransmit timers, probes).
     * Returns packets accepted this pump. */
    uint32_t pump(rtos::Thread &thread);

    /**
     * Reliable send to peer @p dst: the firewall builds a sequenced
     * data frame whose payload words are (@p w0, @p w1, then
     * deterministic filler) of @p payloadWords total, posts it inside
     * the ARQ window or backlogs it (peer dead / window full).
     * Returns true when accepted — an accepted message is delivered
     * exactly once to the peer's consumers, eventually, as long as
     * the peer heals; false only when the bounded backlog (or the
     * heap) refuses it, counted in arqSendDrops().
     */
    bool sendMessage(rtos::Thread &thread, uint32_t dst,
                     uint32_t payloadWords, uint32_t w0, uint32_t w1,
                     uint32_t w2 = 0, uint32_t w3 = 0);

    /**
     * Unreliable send: builds a checksum-balanced Unreliable frame
     * and posts it once — no sequence number, no retransmission, no
     * peer state. The flow layer's idempotent control segments ride
     * these. Returns true when the frame was posted.
     */
    bool sendUnreliable(rtos::Thread &thread, uint32_t dst,
                        uint32_t payloadWords, uint32_t w0, uint32_t w1,
                        uint32_t w2 = 0, uint32_t w3 = 0);

    /** Driver's tx export: (buffer, len), claims the buffer until
     * transmit completes. Returns 1 posted / 0 busy-or-refused. */
    const rtos::Import &txImport() const { return txImport_; }

    /** Firewall's send export (guest-context senders: the flow layer
     * replies from inside its deliver body through this). Args are
     * (dst, payloadWords [| kSendUnreliableFlag], w0, w1, w2, w3). */
    const rtos::Import &sendImport() const { return sendImport_; }

    /** @name Stack counters @{ */
    uint64_t packetsAccepted() const { return packetsAccepted_; }
    uint64_t bytesAccepted() const { return bytesAccepted_; }
    uint64_t parseDrops() const { return parseDrops_; }
    uint64_t consumerRejects() const { return consumerRejects_; }
    uint64_t ringCorruptionsDetected() const
    {
        return ringCorruptionsDetected_;
    }
    uint64_t refillFailures() const { return refillFailures_; }
    uint64_t refillTimeouts() const { return refillTimeouts_; }
    uint64_t rxErrorsSeen() const { return rxErrorsSeen_; }
    uint64_t acksSent() const { return acksSent_; }
    uint64_t txCompleted() const { return txCompleted_; }
    /** @} */

    /** @name ARQ counters @{ */
    uint64_t arqSent() const { return arqSent_; }
    uint64_t arqDelivered() const { return arqDelivered_; }
    uint64_t arqDuplicatesDropped() const
    {
        return arqDuplicatesDropped_;
    }
    uint64_t arqRetransmits() const { return arqRetransmits_; }
    uint64_t arqAcksSent() const { return arqAcksSent_; }
    uint64_t arqAcksReceived() const { return arqAcksReceived_; }
    uint64_t arqPeerDeaths() const { return arqPeerDeaths_; }
    uint64_t arqRejoins() const { return arqRejoins_; }
    uint64_t arqProbesSent() const { return arqProbesSent_; }
    uint64_t arqSendDrops() const { return arqSendDrops_; }
    uint64_t wrongDest() const { return wrongDest_; }
    uint64_t unreliableDelivered() const { return unreliableDelivered_; }
    /** Acked-message retry counts: bucket i = messages that needed i
     * retransmissions (last bucket is 8+). The chaos campaign exports
     * this so retransmit-behaviour regressions are diffable. */
    std::vector<uint64_t> retxHistogram() const;
    /** @} */

    /** @name Firewall admission (reliable mode) @{ */
    uint64_t fwAdmitted() const { return fwAdmitted_; }
    uint64_t fwRateLimited() const { return fwRateLimited_; }
    uint64_t fwInflightDenied() const { return fwInflightDenied_; }
    uint64_t fwOversized() const { return fwOversized_; }
    uint64_t fwMalformed() const { return fwMalformed_; }
    uint64_t fwStaleEpochs() const { return fwStaleEpochs_; }
    uint64_t fwQuarantineDrops() const { return fwQuarantineDrops_; }
    uint64_t fwStrikes() const { return fwStrikes_; }
    uint64_t fwQuarantines() const { return fwQuarantines_; }
    uint32_t deviceStrikes(uint32_t mac) const;
    bool deviceQuarantined(uint32_t mac) const;
    /** Devices this stack has locally struck out — the fleet runner's
     * escalation signal for fabric-level quarantine. */
    std::vector<uint32_t> quarantinedMacs() const;
    /** Fleet-level escalation entry: force-quarantine @p mac (no
     * strike accounting) and purge all ARQ state toward it, so a
     * fabric-partitioned rogue leaves no retransmit residue. */
    void quarantineMac(rtos::Thread &thread, uint32_t mac);
    /**
     * Downstream in-flight accounting: the broker charges a device's
     * budget while a record derived from its frame sits in a
     * subscriber queue, and credits it on delivery or shed. A denied
     * charge means the device is over its in-flight ceiling — the
     * broker sheds, and subsequent frames from the device are
     * rejected at admission.
     */
    bool chargeInflight(uint32_t srcMac, uint64_t bytes);
    void creditInflight(uint32_t srcMac, uint64_t bytes);
    /** @} */

    /** @name ARQ peer introspection (tests, fleet invariant gate) @{ */
    bool peerKnown(uint32_t mac) const;
    bool peerDead(uint32_t mac) const;
    uint32_t peerPending(uint32_t mac) const;
    uint32_t peerBacklog(uint32_t mac) const;
    /** Current retransmit timeout of the oldest pending message
     * (0 when nothing is pending) — the backoff-schedule probe. */
    uint64_t peerRto(uint32_t mac) const;
    uint32_t peerRetries(uint32_t mac) const;
    uint32_t peerRxBase(uint32_t mac) const;
    /** Every peer's pending and backlog queues are empty: the fleet
     * drain condition. */
    bool arqIdle() const;
    /** All peer ids this node has ARQ state for. */
    std::vector<uint32_t> peerMacs() const;
    /** @} */

    /** @name Snapshot state
     * The rings and the boot-time buffer posts are rebuilt by the
     * deterministic boot; this captures the dynamic state on top —
     * ring cursors, slot-table capabilities, ARQ peer state and
     * counters. @{ */
    void serialize(snapshot::Writer &w) const;
    bool deserialize(snapshot::Reader &r);
    /** @} */

  private:
    /** The snapshot layout, defined beside the forwarders. */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a);
    /** One ARQ data frame the sender still owns (in flight or
     * backlogged); buf is the sender's heap reference, freed when the
     * ack arrives. */
    struct ArqMessage
    {
        uint32_t seq = 0;
        cap::Capability buf;
        uint32_t len = 0;
        uint64_t sentAt = 0;
        uint64_t nextRetry = 0;
        uint64_t rto = 0;
        uint32_t retries = 0;
    };
    /** Per-peer ARQ state (both directions). std::map / std::set keep
     * iteration — and therefore serialization — deterministic. */
    struct ArqPeer
    {
        uint32_t nextSeq = 0;
        bool dead = false;
        uint64_t lastHeard = 0;
        uint64_t nextProbe = 0;
        std::deque<ArqMessage> pending;
        std::deque<ArqMessage> backlog;
        /** Receive side: everything below rxBase is delivered;
         * rxSeen holds the out-of-order seqs at or above it. rxEpoch
         * is the sender incarnation the window belongs to. */
        uint32_t rxBase = 0;
        uint32_t rxEpoch = 0;
        std::set<uint32_t> rxSeen;
    };

    uint32_t mmioRead(rtos::CompartmentContext &ctx, uint32_t reg);
    void mmioWrite(rtos::CompartmentContext &ctx, uint32_t reg,
                   uint32_t value);
    /** The driver pump body (RX consume + refill + TX reap). */
    rtos::CallResult pumpBody(rtos::CompartmentContext &ctx);
    rtos::CallResult txBody(rtos::CompartmentContext &ctx,
                            rtos::ArgVec &args);
    /** The firewall process body (claim, validate, consume, release). */
    rtos::CallResult processBody(rtos::CompartmentContext &ctx,
                                 rtos::ArgVec &args);
    /** The firewall ARQ bodies. @{ */
    rtos::CallResult sendBody(rtos::CompartmentContext &ctx,
                              rtos::ArgVec &args);
    rtos::CallResult serviceBody(rtos::CompartmentContext &ctx);
    rtos::CallResult handleReliable(rtos::CompartmentContext &ctx,
                                    const cap::Capability &payload,
                                    uint32_t len);
    /** @} */
    /** Fan the validated payload out to every consumer. */
    rtos::CallResult fanOut(rtos::CompartmentContext &ctx,
                            const cap::Capability &payload,
                            uint32_t len);
    /** Post a frame to the driver's tx export (claims the buffer). */
    bool postFrame(rtos::CompartmentContext &ctx,
                   const cap::Capability &buf, uint32_t len);
    /** Build and post a transient ack/probe frame to @p dst. */
    void sendControl(rtos::CompartmentContext &ctx, uint32_t dst,
                     FleetFrameType type, uint32_t seq);
    /** Allocate, post and record one RX slot buffer, with a bounded
     * backoff wait when the heap is exhausted. */
    RefillResult refillOne(rtos::CompartmentContext &ctx);
    void reapTx(rtos::CompartmentContext &ctx);

    /** Firewall admission state for one source device. */
    struct FwDevice
    {
        int32_t rule = -1; ///< Index into config rules; -1 = no match.
        alloc::QuotaId quota = alloc::kUnmeteredQuota;
        uint64_t tokens256 = 0; ///< Bucket level, 1/256 frame units.
        uint64_t lastRefill = 0;
        uint32_t strikes = 0;
        bool quarantined = false;
    };
    FwDevice &fwDeviceFor(uint32_t src, uint32_t flowClass);
    /** Token-bucket + quota admission for one frame; charges @p len
     * in-flight bytes on Ok (sets @p inflightCharged; the caller
     * credits it back when frame handling completes). */
    AdmitResult admitFrame(rtos::CompartmentContext &ctx, uint32_t src,
                           uint32_t type, uint32_t len,
                           uint32_t flowClass, bool *inflightCharged);
    /** A violation costs the device a strike; enough strikes
     * quarantine it. Returns true when this strike *newly*
     * quarantined the device — the caller then purges ARQ state. */
    bool strikeDevice(uint32_t src);
    /** Drop all ARQ state toward/from @p src (frees held buffers):
     * retransmit state toward a quarantined device would otherwise
     * keep the heap above baseline and the ARQ forever non-idle. */
    void purgePeer(rtos::Thread &thread, uint32_t src);
    /** Flow class of a reliable frame: payload word 0's class byte
     * when the flow magic is present, else 0. */
    uint32_t frameFlowClass(rtos::CompartmentContext &ctx,
                            const cap::Capability &payload,
                            uint32_t len);

    rtos::Kernel &kernel_;
    NicDevice &nic_;
    rtos::Compartment &driver_;
    rtos::Compartment &firewall_;
    cap::Capability nicCap_;
    NetStackConfig config_;

    std::vector<NetConsumer> consumers_;
    rtos::Import pumpImport_;
    rtos::Import txImport_;
    rtos::Import processImport_;
    rtos::Import sendImport_;
    rtos::Import serviceImport_;

    /** Driver state: rings and the authoritative slot table. @{ */
    cap::Capability rxRing_;
    cap::Capability txRing_;
    std::vector<cap::Capability> rxSlots_;
    std::vector<cap::Capability> txSlots_;
    uint32_t rxConsumed_ = 0; ///< Free-running consumed count.
    uint32_t rxPosted_ = 0;   ///< Free-running posted count (RX_TAIL).
    uint32_t pendingRefills_ = 0;
    uint32_t txPosted_ = 0; ///< Free-running posted count (TX_HEAD).
    uint32_t txReaped_ = 0; ///< Free-running reaped count.
    /** @} */

    /** Firewall ARQ state, keyed by peer id. */
    std::map<uint32_t, ArqPeer> peers_;

    uint64_t packetsAccepted_ = 0;
    uint64_t bytesAccepted_ = 0;
    uint64_t parseDrops_ = 0;
    uint64_t consumerRejects_ = 0;
    uint64_t ringCorruptionsDetected_ = 0;
    uint64_t refillFailures_ = 0;
    uint64_t refillTimeouts_ = 0;
    uint64_t rxErrorsSeen_ = 0;
    uint64_t acksSent_ = 0;
    uint64_t txCompleted_ = 0;
    uint32_t ackCountdown_ = 0;

    uint64_t arqSent_ = 0;
    uint64_t arqDelivered_ = 0;
    uint64_t arqDuplicatesDropped_ = 0;
    uint64_t arqRetransmits_ = 0;
    uint64_t arqAcksSent_ = 0;
    uint64_t arqAcksReceived_ = 0;
    uint64_t arqPeerDeaths_ = 0;
    uint64_t arqRejoins_ = 0;
    uint64_t arqProbesSent_ = 0;
    uint64_t arqSendDrops_ = 0;
    uint64_t wrongDest_ = 0;
    uint64_t unreliableDelivered_ = 0;
    uint64_t retxHistogram_[kRetxHistogramBuckets] = {};

    /** Firewall admission state (reliable mode, admission on). */
    std::map<uint32_t, FwDevice> fwDevices_;
    alloc::QuotaLedger fwLedger_;
    uint64_t fwAdmitted_ = 0;
    uint64_t fwRateLimited_ = 0;
    uint64_t fwInflightDenied_ = 0;
    uint64_t fwOversized_ = 0;
    uint64_t fwMalformed_ = 0;
    uint64_t fwStaleEpochs_ = 0;
    uint64_t fwQuarantineDrops_ = 0;
    uint64_t fwStrikes_ = 0;
    uint64_t fwQuarantines_ = 0;
};

} // namespace cheriot::net

#endif // CHERIOT_NET_NET_STACK_H
