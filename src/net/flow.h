/**
 * @file
 * Flow-level transport: a TCP-lite connection state machine layered
 * on the ARQ reliable-delivery window, so a consumer sees *streams*,
 * not frames.
 *
 * Flow segments ride inside fleet-frame payloads (the flow header is
 * payload word 0; see fleet_frame.h), which buys the hard part for
 * free: handshake, credit and teardown segments travel over the ARQ
 * exactly-once channel, so the state machine never has to reason
 * about a lost SYN or a duplicated credit. Only the two *idempotent*
 * segment kinds — keepalives and resets — ride Unreliable frames,
 * deliberately: a reset sent to a rogue or vanished peer must never
 * create retransmit state toward it.
 *
 * Per ordered peer pair there is one flow: the initiator's `open()`
 * sends a SYN carrying its incarnation epoch and a fresh flow id; the
 * responder installs receive state and answers with a SYN-ACK
 * carrying the receive window (in segments). Data sends then block —
 * with a *typed* WindowClosed, not a drop — once (sent - credited)
 * reaches that window; the receiver extends credit every
 * `creditEvery` delivered segments over the reliable channel, so
 * credit cannot be lost and the window cannot deadlock. Teardown is
 * typed three ways: FIN/FIN-ACK (peer close), idle timeout, and
 * reset (protocol violation, stale incarnation, or corrupted state).
 *
 * Epoch validation: a SYN from an older incarnation than the one on
 * record is a replay (the rogue workload's signature move) and is
 * refused with a StaleEpoch reset; a newer incarnation replaces the
 * stale flow — the flow-level mirror of the ARQ epoch rule.
 *
 * Fault containment (FaultSite::FlowStateCorrupt): every flow-table
 * entry carries a canary over its identity fields; a scrambled entry
 * fails validation on next touch and is torn down with a typed
 * CloseReason::Reset — never a consumer trap.
 *
 * The manager is host-orchestrated like NetStack: the `flow` guest
 * compartment owns the deliver entry point (registered as the
 * NetStack consumer); replies it decides on (SYN-ACKs, credits,
 * resets) are queued as plain data and flushed through the firewall's
 * send export on the next service pass, keeping compartment call
 * chains shallow and deterministic.
 */

#ifndef CHERIOT_NET_FLOW_H
#define CHERIOT_NET_FLOW_H

#include "net/net_stack.h"
#include "snapshot/serializer.h"

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace cheriot::fault
{
class FaultInjector;
}

namespace cheriot::net
{

/** Segment kinds (flow header byte 1). */
enum class FlowKind : uint8_t
{
    Syn = 1,
    SynAck = 2,
    Data = 3,
    Fin = 4,
    FinAck = 5,
    Reset = 6,     ///< Unreliable, idempotent.
    Window = 7,    ///< Credit extension (delta, in segments).
    Keepalive = 8, ///< Unreliable, idempotent; rx side echoes it.
};

/** Flow classes double as broker QoS classes (0 sheds first). */
enum class FlowClass : uint8_t
{
    Telemetry = 0,
    Event = 1,
    Control = 2,
};

/** Typed teardown reasons. */
enum class CloseReason : uint8_t
{
    None = 0,
    PeerClose,  ///< Orderly FIN / FIN-ACK.
    Timeout,    ///< Idle past the configured window.
    Reset,      ///< Protocol violation or corrupted flow state.
    StaleEpoch, ///< Superseded-incarnation replay refused.
};

const char *closeReasonName(CloseReason reason);

/** The flow guest compartment (created before finalizeBoot). */
struct FlowCompartment
{
    rtos::Compartment *flow = nullptr;
};

FlowCompartment addFlowCompartment(rtos::Kernel &kernel);

/** A downstream stream consumer: called as (payload, len) with the
 * whole validated frame; application words are payload words 2/3. */
struct FlowConsumer
{
    rtos::Import import;
};

struct FlowConfig
{
    /** Receive window advertised in the SYN-ACK: max uncredited
     * segments a sender may have in flight on one flow. */
    uint32_t window = 8;
    /** Receiver extends credit every N delivered segments. */
    uint32_t creditEvery = 4;
    /** Idle tx flows emit a keepalive after this many cycles. */
    uint64_t keepaliveIdleCycles = 1u << 14;
    /** Flows idle (nothing heard) past this are torn down with a
     * typed Timeout; 0 disables the timer. */
    uint64_t timeoutCycles = 0;
    /** Local incarnation, carried in the SYN epoch field. */
    uint32_t epoch = 0;
    /** Total payload words per data segment (>= 4). */
    uint32_t payloadWords = 8;
};

class FlowManager
{
  public:
    enum class OpenResult : uint8_t
    {
        Ok = 0,
        AlreadyOpen,
        TableFull,
        Refused, ///< The ARQ layer refused the SYN.
    };
    enum class SendResult : uint8_t
    {
        Ok = 0,
        NoFlow,
        NotEstablished, ///< SYN sent, SYN-ACK not yet heard.
        WindowClosed,   ///< Receive window exhausted: typed stall.
        Refused,        ///< ARQ backlog full or flow reset.
    };

    FlowManager(rtos::Kernel &kernel, NetStack &stack,
                const FlowCompartment &parts, FlowConfig config = {});

    /** Add the deliver export and remember the stream consumers. */
    void connect(const std::vector<FlowConsumer> &consumers);
    /** Register this as the NetStack consumer. */
    const rtos::Import &deliverImport() const { return deliverImport_; }
    void setFaultInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /** @name Host-side flow operations @{ */
    OpenResult open(rtos::Thread &thread, uint32_t dstMac,
                    FlowClass cls);
    SendResult send(rtos::Thread &thread, uint32_t dstMac, uint32_t w2,
                    uint32_t w3);
    /** Orderly close: FIN now, state dropped on the FIN-ACK. */
    void close(rtos::Thread &thread, uint32_t dstMac);
    /** Flush queued replies, emit keepalives, reap idle flows. Call
     * once per round after the stack pump. Pass @p emitKeepalives
     * false while quiescing: a fleet being drained must go silent,
     * and idle probes would keep the fabric awake forever. */
    void service(rtos::Thread &thread, bool emitKeepalives = true);
    /** @} */

    /** @name Introspection @{ */
    bool txKnown(uint32_t dstMac) const;
    bool txEstablished(uint32_t dstMac) const;
    uint32_t txInflight(uint32_t dstMac) const;
    bool rxKnown(uint32_t srcMac) const;
    /** Reason the tx flow to @p dstMac last closed (None if never). */
    CloseReason lastClose(uint32_t dstMac) const;
    uint64_t opens() const { return opens_; }
    uint64_t accepts() const { return accepts_; }
    uint64_t segmentsSent() const { return segmentsSent_; }
    uint64_t segmentsDelivered() const { return segmentsDelivered_; }
    uint64_t windowStalls() const { return windowStalls_; }
    uint64_t creditsSent() const { return creditsSent_; }
    uint64_t creditsReceived() const { return creditsReceived_; }
    uint64_t keepalivesSent() const { return keepalivesSent_; }
    uint64_t keepalivesSeen() const { return keepalivesSeen_; }
    uint64_t timeouts() const { return timeouts_; }
    uint64_t resetsSent() const { return resetsSent_; }
    uint64_t resetsReceived() const { return resetsReceived_; }
    uint64_t staleEpochResets() const { return staleEpochResets_; }
    uint64_t unknownFlowResets() const { return unknownFlowResets_; }
    uint64_t corruptResets() const { return corruptResets_; }
    uint64_t nonFlowDrops() const { return nonFlowDrops_; }
    uint64_t peerCloses() const { return peerCloses_; }
    /** @} */

    /** @name Snapshot state @{ */
    void serialize(snapshot::Writer &w) const;
    bool deserialize(snapshot::Reader &r);
    /** @} */

  private:
    /** The snapshot layout, defined beside the forwarders. */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a);
    enum class State : uint8_t
    {
        SynSent = 1,
        Established = 2,
        FinSent = 3,
    };

    struct Flow
    {
        uint32_t peer = 0;
        uint16_t id = 0;
        uint8_t cls = 0;
        State state = State::SynSent;
        uint32_t peerEpoch = 0;  ///< rx side: sender incarnation.
        uint32_t peerWindow = 1; ///< tx side: from the SYN-ACK.
        uint32_t sent = 0;       ///< tx: data segments sent.
        uint32_t credited = 0;   ///< tx: credit received (segments).
        uint32_t delivered = 0;  ///< rx: data segments delivered.
        uint32_t creditCountdown = 0;
        uint64_t lastHeard = 0;
        uint64_t lastSent = 0;
        uint32_t canary = 0; ///< Over the identity fields; a
                             ///< scrambled entry dies typed.
    };

    /** A reply decided inside the deliver body, flushed host-side. */
    struct PendingSegment
    {
        uint32_t dst = 0;
        FlowKind kind = FlowKind::Reset;
        uint8_t cls = 0;
        uint16_t id = 0;
        uint16_t arg = 0;
        bool unreliable = false;
    };

    uint32_t canaryOf(const Flow &f) const;
    void seal(Flow &f) const { f.canary = canaryOf(f); }
    /** Fault hook + invariant check; false means the entry is
     * corrupted and must be torn down with a typed Reset. */
    bool validate(Flow &f);
    /** Tear a corrupted/violated flow down: queue an unreliable
     * Reset, record the reason, erase the entry. */
    void resetFlow(std::map<uint32_t, Flow> &table, uint32_t peer,
                   CloseReason reason);

    rtos::CallResult deliverBody(rtos::CompartmentContext &ctx,
                                 rtos::ArgVec &args);
    void queueSegment(uint32_t dst, FlowKind kind, uint8_t cls,
                      uint16_t id, uint16_t arg, bool unreliable);
    bool sendSegment(rtos::Thread &thread, const PendingSegment &seg);

    rtos::Kernel &kernel_;
    NetStack &stack_;
    rtos::Compartment &compartment_;
    FlowConfig config_;
    fault::FaultInjector *injector_ = nullptr;

    std::vector<FlowConsumer> consumers_;
    rtos::Import deliverImport_;

    uint32_t nextFlowSeq_ = 0;
    /** Flows we opened (keyed by peer) / flows opened to us. std::map
     * keeps serialization canonical. */
    std::map<uint32_t, Flow> txFlows_;
    std::map<uint32_t, Flow> rxFlows_;
    std::map<uint32_t, uint8_t> lastClose_; ///< tx side, CloseReason.
    std::deque<PendingSegment> pendingSegments_;

    uint64_t opens_ = 0;
    uint64_t accepts_ = 0;
    uint64_t segmentsSent_ = 0;
    uint64_t segmentsDelivered_ = 0;
    uint64_t windowStalls_ = 0;
    uint64_t creditsSent_ = 0;
    uint64_t creditsReceived_ = 0;
    uint64_t keepalivesSent_ = 0;
    uint64_t keepalivesSeen_ = 0;
    uint64_t timeouts_ = 0;
    uint64_t resetsSent_ = 0;
    uint64_t resetsReceived_ = 0;
    uint64_t staleEpochResets_ = 0;
    uint64_t unknownFlowResets_ = 0;
    uint64_t corruptResets_ = 0;
    uint64_t nonFlowDrops_ = 0;
    uint64_t peerCloses_ = 0;
};

} // namespace cheriot::net

#endif // CHERIOT_NET_FLOW_H
