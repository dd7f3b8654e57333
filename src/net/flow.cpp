#include "net/flow.h"

#include "fault/fault_injector.h"
#include "rtos/kernel.h"
#include "sim/machine.h"
#include "util/bits.h"

namespace cheriot::net
{

using cap::Capability;
using rtos::ArgVec;
using rtos::CallResult;
using rtos::CompartmentContext;

namespace
{

/** Flow-table capacity, per direction. */
constexpr size_t kMaxFlows = 64;

} // namespace

const char *
closeReasonName(CloseReason reason)
{
    switch (reason) {
    case CloseReason::None:
        return "none";
    case CloseReason::PeerClose:
        return "peer-close";
    case CloseReason::Timeout:
        return "timeout";
    case CloseReason::Reset:
        return "reset";
    case CloseReason::StaleEpoch:
        return "stale-epoch";
    }
    return "?";
}

FlowCompartment
addFlowCompartment(rtos::Kernel &kernel)
{
    FlowCompartment parts;
    parts.flow = &kernel.createCompartment("flow");
    return parts;
}

FlowManager::FlowManager(rtos::Kernel &kernel, NetStack &stack,
                         const FlowCompartment &parts, FlowConfig config)
    : kernel_(kernel), stack_(stack), compartment_(*parts.flow),
      config_(config)
{
    if (config_.window == 0) {
        config_.window = 1;
    }
    if (config_.creditEvery == 0) {
        config_.creditEvery = 1;
    }
    if (config_.payloadWords < 4) {
        config_.payloadWords = 4;
    }
}

void
FlowManager::connect(const std::vector<FlowConsumer> &consumers)
{
    consumers_ = consumers;
    const uint32_t deliverIndex = compartment_.addExport(
        {"deliver",
         [this](CompartmentContext &ctx, ArgVec &args) {
             return deliverBody(ctx, args);
         },
         /*interruptsDisabled=*/false});
    deliverImport_ = {&compartment_, deliverIndex};
    // Audit-manifest wiring: reassembled messages fan out from the
    // flow compartment to every registered consumer entry.
    for (const auto &consumer : consumers_) {
        if (consumer.import.valid()) {
            compartment_.addEntryImport(*consumer.import.compartment,
                                        consumer.import.target().name);
        }
    }
}

uint32_t
FlowManager::canaryOf(const Flow &f) const
{
    return mix32(f.peer ^ (static_cast<uint32_t>(f.id) << 16) ^
                 (static_cast<uint32_t>(f.cls) << 8) ^
                 static_cast<uint32_t>(f.state) ^ 0x5F10A7u);
}

bool
FlowManager::validate(Flow &f)
{
    if (injector_ != nullptr) {
        uint32_t param = 0;
        if (injector_->flowStateTouched(&param)) {
            // The fault model: a stray store scrambles the entry. The
            // canary (identity + state) and the credit invariant are
            // the detection surface.
            f.state = static_cast<State>(param & 0xff);
            f.id = static_cast<uint16_t>(f.id ^ (param >> 8));
            f.credited ^= param;
        }
    }
    const bool stateOk = f.state == State::SynSent ||
                         f.state == State::Established ||
                         f.state == State::FinSent;
    return f.canary == canaryOf(f) && stateOk && f.credited <= f.sent;
}

void
FlowManager::resetFlow(std::map<uint32_t, Flow> &table, uint32_t peer,
                       CloseReason reason)
{
    const auto it = table.find(peer);
    if (it == table.end()) {
        return;
    }
    queueSegment(peer, FlowKind::Reset, it->second.cls, it->second.id,
                 static_cast<uint16_t>(reason), /*unreliable=*/true);
    if (&table == &txFlows_) {
        lastClose_[peer] = static_cast<uint8_t>(reason);
    }
    table.erase(it);
}

void
FlowManager::queueSegment(uint32_t dst, FlowKind kind, uint8_t cls,
                          uint16_t id, uint16_t arg, bool unreliable)
{
    if (kind == FlowKind::Reset) {
        resetsSent_++;
    }
    pendingSegments_.push_back({dst, kind, cls, id, arg, unreliable});
}

bool
FlowManager::sendSegment(rtos::Thread &thread, const PendingSegment &seg)
{
    const uint32_t w0 = flowHeaderWord(static_cast<uint8_t>(seg.kind),
                                       seg.cls);
    const uint32_t w1 = (static_cast<uint32_t>(seg.id) << 16) | seg.arg;
    if (seg.unreliable) {
        return stack_.sendUnreliable(thread, seg.dst, 4, w0, w1);
    }
    return stack_.sendMessage(thread, seg.dst, 4, w0, w1);
}

FlowManager::OpenResult
FlowManager::open(rtos::Thread &thread, uint32_t dstMac, FlowClass cls)
{
    if (txFlows_.count(dstMac) != 0) {
        return OpenResult::AlreadyOpen;
    }
    if (txFlows_.size() >= kMaxFlows) {
        return OpenResult::TableFull;
    }
    const uint16_t id = static_cast<uint16_t>(nextFlowSeq_++);
    const uint32_t w0 = flowHeaderWord(
        static_cast<uint8_t>(FlowKind::Syn), static_cast<uint8_t>(cls));
    const uint32_t w1 = (static_cast<uint32_t>(id) << 16) |
                        (config_.epoch & 0xffffu);
    if (!stack_.sendMessage(thread, dstMac, 4, w0, w1)) {
        return OpenResult::Refused;
    }
    const uint64_t now = kernel_.machine().cycles();
    Flow f;
    f.peer = dstMac;
    f.id = id;
    f.cls = static_cast<uint8_t>(cls);
    f.state = State::SynSent;
    f.lastHeard = now;
    f.lastSent = now;
    seal(f);
    txFlows_[dstMac] = f;
    opens_++;
    return OpenResult::Ok;
}

FlowManager::SendResult
FlowManager::send(rtos::Thread &thread, uint32_t dstMac, uint32_t w2,
                  uint32_t w3)
{
    const auto it = txFlows_.find(dstMac);
    if (it == txFlows_.end()) {
        return SendResult::NoFlow;
    }
    Flow &f = it->second;
    if (!validate(f)) {
        corruptResets_++;
        resetFlow(txFlows_, dstMac, CloseReason::Reset);
        return SendResult::Refused;
    }
    if (f.state == State::SynSent) {
        return SendResult::NotEstablished;
    }
    if (f.state != State::Established) {
        return SendResult::Refused;
    }
    if (f.sent - f.credited >= f.peerWindow) {
        windowStalls_++;
        return SendResult::WindowClosed;
    }
    const uint32_t w0 = flowHeaderWord(
        static_cast<uint8_t>(FlowKind::Data), f.cls);
    const uint32_t w1 = (static_cast<uint32_t>(f.id) << 16) |
                        (f.sent & 0xffffu);
    if (!stack_.sendMessage(thread, dstMac, config_.payloadWords, w0,
                            w1, w2, w3)) {
        return SendResult::Refused;
    }
    f.sent++;
    f.lastSent = kernel_.machine().cycles();
    segmentsSent_++;
    return SendResult::Ok;
}

void
FlowManager::close(rtos::Thread &thread, uint32_t dstMac)
{
    const auto it = txFlows_.find(dstMac);
    if (it == txFlows_.end()) {
        return;
    }
    Flow &f = it->second;
    if (f.state == State::Established) {
        PendingSegment fin{dstMac, FlowKind::Fin, f.cls, f.id,
                           static_cast<uint16_t>(CloseReason::PeerClose),
                           /*unreliable=*/false};
        if (sendSegment(thread, fin)) {
            f.state = State::FinSent;
            seal(f);
            return; // State drops when the FIN-ACK arrives.
        }
    }
    // Not yet established (or the FIN was refused): drop locally.
    lastClose_[dstMac] = static_cast<uint8_t>(CloseReason::PeerClose);
    txFlows_.erase(it);
}

void
FlowManager::service(rtos::Thread &thread, bool emitKeepalives)
{
    // Flush replies queued inside the deliver body; handshake and
    // credit progress gates on this. Each queued segment gets one
    // attempt per pass — a reliable segment the ARQ backlog refuses
    // waits for the next pass, an unreliable one is dropped (that is
    // its contract).
    size_t attempts = pendingSegments_.size();
    while (attempts-- > 0 && !pendingSegments_.empty()) {
        const PendingSegment seg = pendingSegments_.front();
        pendingSegments_.pop_front();
        if (stack_.deviceQuarantined(seg.dst)) {
            // Shunned peer: the segment has no one to go to, and
            // re-queueing it would pin the reply queue forever.
            continue;
        }
        if (!sendSegment(thread, seg) && !seg.unreliable) {
            pendingSegments_.push_back(seg);
        }
    }

    const uint64_t now = kernel_.machine().cycles();
    for (auto &entry : txFlows_) {
        Flow &f = entry.second;
        if (emitKeepalives && f.state == State::Established &&
            now - f.lastSent >= config_.keepaliveIdleCycles) {
            const PendingSegment ka{entry.first, FlowKind::Keepalive,
                                    f.cls, f.id, 0,
                                    /*unreliable=*/true};
            if (sendSegment(thread, ka)) {
                keepalivesSent_++;
                f.lastSent = now;
            }
        }
    }

    if (config_.timeoutCycles == 0) {
        return;
    }
    std::vector<uint32_t> expired;
    for (const auto &entry : txFlows_) {
        if (now - entry.second.lastHeard > config_.timeoutCycles) {
            expired.push_back(entry.first);
        }
    }
    for (const uint32_t peer : expired) {
        timeouts_++;
        resetFlow(txFlows_, peer, CloseReason::Timeout);
    }
    expired.clear();
    for (const auto &entry : rxFlows_) {
        if (now - entry.second.lastHeard > config_.timeoutCycles) {
            expired.push_back(entry.first);
        }
    }
    for (const uint32_t peer : expired) {
        timeouts_++;
        resetFlow(rxFlows_, peer, CloseReason::Timeout);
    }
}

CallResult
FlowManager::deliverBody(CompartmentContext &ctx, ArgVec &args)
{
    // Flow activation frame: parse scratch on the chopped stack.
    const Capability frame = ctx.stackAlloc(64);
    if (!frame.tag()) {
        return CallResult::faulted(sim::TrapCause::CheriBoundsViolation);
    }
    ctx.mem.storeWord(frame, frame.base(), 0);

    const Capability payload = args[0];
    const uint32_t len = args[1].address();
    // Header + flow header word + argument word + checksum.
    const uint32_t minLen = (kFleetHeaderWords + 2 + 1) * 4;
    if (!payload.tag() || len < minLen || payload.length() < len) {
        nonFlowDrops_++;
        return CallResult::ofInt(0);
    }
    const uint32_t base = payload.base();
    const uint32_t src = ctx.mem.loadWord(payload, base + 4);
    const uint32_t w0 =
        ctx.mem.loadWord(payload, base + kFleetHeaderBytes);
    if (!isFlowHeaderWord(w0)) {
        // Raw (non-flow) data reaching an application-tier node:
        // counted and contained, never handed to stream consumers.
        nonFlowDrops_++;
        return CallResult::ofInt(0);
    }
    const uint8_t kind = static_cast<uint8_t>(w0 >> 8);
    const uint8_t cls = static_cast<uint8_t>(w0);
    const uint32_t w1 =
        ctx.mem.loadWord(payload, base + kFleetHeaderBytes + 4);
    const uint16_t id = static_cast<uint16_t>(w1 >> 16);
    const uint16_t arg = static_cast<uint16_t>(w1);
    const uint64_t now = ctx.kernel.machine().cycles();

    switch (static_cast<FlowKind>(kind)) {
    case FlowKind::Syn: {
        const auto it = rxFlows_.find(src);
        if (it != rxFlows_.end()) {
            Flow &f = it->second;
            if (!validate(f)) {
                corruptResets_++;
                resetFlow(rxFlows_, src, CloseReason::Reset);
                // Fresh accept below: the corrupted entry is gone.
            } else if (f.id == id) {
                // Duplicate SYN for the live flow: re-ack, no state.
                f.lastHeard = now;
                queueSegment(src, FlowKind::SynAck, f.cls, f.id,
                             static_cast<uint16_t>(config_.window),
                             /*unreliable=*/false);
                return CallResult::ofInt(1);
            } else if ((static_cast<uint16_t>(
                            arg - (f.peerEpoch & 0xffffu)) &
                        0x8000u) != 0) {
                // SYN from an *older* incarnation than the flow on
                // record: a replay. Refuse with a typed reason and
                // keep the live flow.
                staleEpochResets_++;
                queueSegment(src, FlowKind::Reset, cls, id,
                             static_cast<uint16_t>(
                                 CloseReason::StaleEpoch),
                             /*unreliable=*/true);
                return CallResult::ofInt(0);
            } else {
                // Same/newer incarnation, new flow id: the peer
                // reopened; the old receive state is superseded.
                rxFlows_.erase(it);
            }
        }
        if (rxFlows_.size() >= kMaxFlows) {
            queueSegment(src, FlowKind::Reset, cls, id,
                         static_cast<uint16_t>(CloseReason::Reset),
                         /*unreliable=*/true);
            return CallResult::ofInt(0);
        }
        Flow f;
        f.peer = src;
        f.id = id;
        f.cls = cls;
        f.state = State::Established;
        f.peerEpoch = arg;
        f.lastHeard = now;
        f.lastSent = now;
        seal(f);
        rxFlows_[src] = f;
        accepts_++;
        queueSegment(src, FlowKind::SynAck, cls, id,
                     static_cast<uint16_t>(config_.window),
                     /*unreliable=*/false);
        return CallResult::ofInt(1);
    }
    case FlowKind::SynAck: {
        const auto it = txFlows_.find(src);
        if (it == txFlows_.end() || it->second.id != id) {
            unknownFlowResets_++;
            queueSegment(src, FlowKind::Reset, cls, id,
                         static_cast<uint16_t>(CloseReason::Reset),
                         /*unreliable=*/true);
            return CallResult::ofInt(0);
        }
        Flow &f = it->second;
        if (!validate(f)) {
            corruptResets_++;
            resetFlow(txFlows_, src, CloseReason::Reset);
            return CallResult::ofInt(0);
        }
        f.lastHeard = now;
        if (f.state == State::SynSent) {
            f.state = State::Established;
            f.peerWindow = arg != 0 ? arg : 1;
            seal(f);
        }
        return CallResult::ofInt(1);
    }
    case FlowKind::Data: {
        const auto it = rxFlows_.find(src);
        if (it == rxFlows_.end() || it->second.id != id) {
            // Data without a handshake (or for a torn-down flow):
            // refused with a typed reset, never delivered.
            unknownFlowResets_++;
            queueSegment(src, FlowKind::Reset, cls, id,
                         static_cast<uint16_t>(CloseReason::Reset),
                         /*unreliable=*/true);
            return CallResult::ofInt(0);
        }
        Flow &f = it->second;
        if (!validate(f)) {
            corruptResets_++;
            resetFlow(rxFlows_, src, CloseReason::Reset);
            return CallResult::ofInt(0);
        }
        f.lastHeard = now;
        f.delivered++;
        f.creditCountdown++;
        if (f.creditCountdown >= config_.creditEvery) {
            queueSegment(src, FlowKind::Window, f.cls, f.id,
                         static_cast<uint16_t>(f.creditCountdown),
                         /*unreliable=*/false);
            creditsSent_++;
            f.creditCountdown = 0;
        }
        segmentsDelivered_++;
        for (const auto &consumer : consumers_) {
            ArgVec consumerArgs = ArgVec::of(
                {payload, Capability().withAddress(len)});
            const CallResult result = ctx.kernel.call(
                ctx.thread, consumer.import, consumerArgs);
            if (!result.ok()) {
                return result;
            }
        }
        return CallResult::ofInt(1);
    }
    case FlowKind::Window: {
        const auto it = txFlows_.find(src);
        if (it == txFlows_.end() || it->second.id != id) {
            return CallResult::ofInt(0); // Credit for a gone flow.
        }
        Flow &f = it->second;
        if (!validate(f)) {
            corruptResets_++;
            resetFlow(txFlows_, src, CloseReason::Reset);
            return CallResult::ofInt(0);
        }
        f.lastHeard = now;
        f.credited += arg;
        creditsReceived_++;
        return CallResult::ofInt(1);
    }
    case FlowKind::Fin: {
        const auto it = rxFlows_.find(src);
        if (it != rxFlows_.end() && it->second.id == id) {
            rxFlows_.erase(it);
            peerCloses_++;
        }
        // Echo the FIN-ACK even without state: closes are idempotent.
        queueSegment(src, FlowKind::FinAck, cls, id, arg,
                     /*unreliable=*/false);
        return CallResult::ofInt(1);
    }
    case FlowKind::FinAck: {
        const auto it = txFlows_.find(src);
        if (it != txFlows_.end() && it->second.id == id &&
            it->second.state == State::FinSent) {
            lastClose_[src] =
                static_cast<uint8_t>(CloseReason::PeerClose);
            txFlows_.erase(it);
        }
        return CallResult::ofInt(1);
    }
    case FlowKind::Reset: {
        resetsReceived_++;
        const auto tt = txFlows_.find(src);
        if (tt != txFlows_.end() && tt->second.id == id) {
            lastClose_[src] = static_cast<uint8_t>(
                arg == static_cast<uint16_t>(CloseReason::StaleEpoch)
                    ? CloseReason::StaleEpoch
                    : CloseReason::Reset);
            txFlows_.erase(tt);
            return CallResult::ofInt(1);
        }
        const auto rt = rxFlows_.find(src);
        if (rt != rxFlows_.end() && rt->second.id == id) {
            rxFlows_.erase(rt);
        }
        return CallResult::ofInt(1);
    }
    case FlowKind::Keepalive: {
        const auto tt = txFlows_.find(src);
        if (tt != txFlows_.end() && tt->second.id == id) {
            // The echo coming back: liveness evidence, no reply
            // (replying would ping-pong forever).
            tt->second.lastHeard = now;
            keepalivesSeen_++;
            return CallResult::ofInt(1);
        }
        const auto rt = rxFlows_.find(src);
        if (rt != rxFlows_.end() && rt->second.id == id) {
            rt->second.lastHeard = now;
            keepalivesSeen_++;
            queueSegment(src, FlowKind::Keepalive, cls, id, 0,
                         /*unreliable=*/true);
        }
        return CallResult::ofInt(1);
    }
    }
    // Flow magic with a nonsense kind: protocol violation.
    unknownFlowResets_++;
    queueSegment(src, FlowKind::Reset, cls, id,
                 static_cast<uint16_t>(CloseReason::Reset),
                 /*unreliable=*/true);
    return CallResult::ofInt(0);
}

bool
FlowManager::txKnown(uint32_t dstMac) const
{
    return txFlows_.count(dstMac) != 0;
}

bool
FlowManager::txEstablished(uint32_t dstMac) const
{
    const auto it = txFlows_.find(dstMac);
    return it != txFlows_.end() &&
           it->second.state == State::Established;
}

uint32_t
FlowManager::txInflight(uint32_t dstMac) const
{
    const auto it = txFlows_.find(dstMac);
    return it == txFlows_.end() ? 0
                                : it->second.sent - it->second.credited;
}

bool
FlowManager::rxKnown(uint32_t srcMac) const
{
    return rxFlows_.count(srcMac) != 0;
}

CloseReason
FlowManager::lastClose(uint32_t dstMac) const
{
    const auto it = lastClose_.find(dstMac);
    return it == lastClose_.end()
               ? CloseReason::None
               : static_cast<CloseReason>(it->second);
}

template <class Self, class Archive>
bool
FlowManager::transfer(Self &self, Archive &a)
{
    const auto flow = [](auto &a, auto &key, auto &f) {
        a.u32(key);
        a.u32(f.peer);
        a.u32(f.id);
        a.u32(f.cls);
        a.u32(f.state);
        a.u32(f.peerEpoch);
        a.u32(f.peerWindow);
        a.u32(f.sent);
        a.u32(f.credited);
        a.u32(f.delivered);
        a.u32(f.creditCountdown);
        a.u64(f.lastHeard);
        a.u64(f.lastSent);
        a.u32(f.canary);
    };
    a.u32(self.nextFlowSeq_);
    a.map(self.txFlows_, flow);
    a.map(self.rxFlows_, flow);
    a.map(self.lastClose_, [](auto &a, auto &peer, auto &reason) {
        a.u32(peer);
        a.u32(reason);
    });
    a.seq(self.pendingSegments_, [](auto &a, auto &seg) {
        a.u32(seg.dst);
        a.u32(seg.kind);
        a.u32(seg.cls);
        a.u32(seg.id);
        a.u32(seg.arg);
        a.b(seg.unreliable);
    });
    a.u64(self.opens_);
    a.u64(self.accepts_);
    a.u64(self.segmentsSent_);
    a.u64(self.segmentsDelivered_);
    a.u64(self.windowStalls_);
    a.u64(self.creditsSent_);
    a.u64(self.creditsReceived_);
    a.u64(self.keepalivesSent_);
    a.u64(self.keepalivesSeen_);
    a.u64(self.timeouts_);
    a.u64(self.resetsSent_);
    a.u64(self.resetsReceived_);
    a.u64(self.staleEpochResets_);
    a.u64(self.unknownFlowResets_);
    a.u64(self.corruptResets_);
    a.u64(self.nonFlowDrops_);
    a.u64(self.peerCloses_);
    return a.ok();
}

void
FlowManager::serialize(snapshot::Writer &w) const
{
    transfer(*this, w);
}

bool
FlowManager::deserialize(snapshot::Reader &r)
{
    return transfer(*this, r);
}

} // namespace cheriot::net
