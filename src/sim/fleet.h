/**
 * @file
 * Fleet runner: tens-to-hundreds of independently-owned Machines on a
 * virtual switch fabric, executed deterministically on host threads.
 *
 * Each FleetNode is a complete system — its own FaultInjector,
 * Machine, kernel, NIC and reliable (ARQ-mode) network stack, plus a
 * consumer compartment that records every delivered fleet message for
 * the invariant gate. Nothing is shared between nodes except the
 * switch fabric.
 *
 * Execution is round-based with a barrier, which is what makes a
 * multithreaded fleet bit-reproducible from a single seed:
 *
 *  - parallel phase: every node runs its slice (generate traffic,
 *    pump, idle) touching only its *own* Machine; frames its NIC
 *    transmits land in a node-local outbox via the TX sink.
 *  - serial phase: the chaos engine applies this round's scheduled
 *    events, outboxes drain into the switch in port order, and the
 *    switch ticks — delivering frames (through each link's seeded
 *    fault model) into destination NICs.
 *
 * The schedule of host threads can never reorder anything observable:
 * all cross-node interaction happens in the serial phase, in a fixed
 * order, from seeded streams. A fleet_chaos failure therefore replays
 * from (seed, event index) alone.
 *
 * The ChaosEngine turns one seed into a recorded schedule of link
 * faults, partitions, port stalls, NIC link drops and one device
 * quarantine/restart; every event is appended to a history with its
 * injection index, so a failing campaign prints exactly which event
 * to replay.
 */

#ifndef CHERIOT_SIM_FLEET_H
#define CHERIOT_SIM_FLEET_H

#include "fault/fault_injector.h"
#include "net/broker.h"
#include "net/flow.h"
#include "net/net_stack.h"
#include "net/nic_device.h"
#include "net/switch.h"
#include "rtos/kernel.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cheriot::sim
{

struct FleetConfig
{
    uint32_t nodes = 8;
    uint64_t seed = 1;
    /** Per-node machine sizing (every node is identical hardware). */
    CoreConfig core = CoreConfig::ibex();
    uint32_t sramSize = 192u << 10;
    uint32_t heapOffset = 64u << 10;
    uint32_t heapSize = 128u << 10;
    /** Host threads for the parallel phase (0 = hardware default). */
    uint32_t threads = 0;
    net::NetStackConfig stack; ///< reliable/localMac are set per node.
    /** Application tier: every node runs a FlowManager (traffic rides
     * flows, not raw sends) and a TelemetryBroker subscribed to it. */
    bool appTier = false;
    /** Node id driven by a host-side RogueDevice instead of honest
     * traffic (-1: none). Honest nodes never pick it as destination. */
    int32_t rogueNode = -1;
    net::FlowConfig flow;     ///< epoch is set per node incarnation.
    net::BrokerConfig broker; ///< Per-node broker sizing.
    /** Fleet-level escalation: when this many distinct nodes have
     * locally quarantined the same MAC, the serial phase partitions
     * its switch port and every node shuns it (0 disables). */
    uint32_t fabricQuarantineVotes = 2;
};

/** Per-round traffic generation knobs. */
struct FleetTraffic
{
    /** Permille chance per node per round of sending one message. */
    uint32_t sendPermille = 500;
    uint32_t payloadWords = 8;
};

/** One message delivery observed by a node's consumer compartment. */
struct FleetDelivery
{
    uint32_t srcMac = 0;
    uint32_t msgId = 0;
    uint32_t sentRound = 0;
    uint32_t recvRound = 0;
};

/** One message accepted by a node's ARQ send path. */
struct FleetSend
{
    uint32_t dstMac = 0;
    uint32_t msgId = 0;
    uint32_t round = 0;
};

class FleetNode
{
  public:
    FleetNode(const FleetConfig &config, uint32_t id);

    uint32_t id() const { return id_; }
    uint32_t mac() const { return id_ + 1; }
    uint32_t incarnation() const { return incarnation_; }

    /** One parallel-phase slice: maybe send, pump, idle. Touches only
     * this node's Machine; TX frames land in outbox(). */
    void runSlice(uint32_t round, const FleetTraffic &traffic,
                  uint32_t fleetNodes);

    /** Directed send (tests drive specific flows); logged like a
     * traffic send. Returns true when the ARQ accepted it. */
    bool sendNow(uint32_t dstMac, uint32_t payloadWords,
                 uint32_t round);

    /** Tear the whole system down and boot a fresh incarnation (the
     * quarantine/restart path). Persistent identity — MAC, traffic
     * stream, message-id counter, send/delivery logs — carries over;
     * ARQ and dedup state start from scratch. */
    void restart();

    /** @name Snapshot (machine + kernel + NIC + stack sections) @{ */
    snapshot::SnapshotImage saveImage() const;
    bool restoreImage(const snapshot::SnapshotImage &image);
    /** @} */

    /** @name Fabric wiring @{ */
    net::NicDevice &nic() { return rig_->nic; }
    std::vector<std::vector<uint8_t>> &outbox() { return outbox_; }
    /** @} */

    /** @name System access @{ */
    sim::Machine &machine() { return rig_->machine; }
    rtos::Kernel &kernel() { return rig_->kernel; }
    /** The node's service thread (tests drive flow/broker calls). */
    rtos::Thread &thread() { return *rig_->thread; }
    net::NetStack &stack() { return *rig_->stack; }
    fault::FaultInjector &injector() { return rig_->injector; }
    /** Application tier (null unless config.appTier). @{ */
    net::FlowManager *flowManager() { return rig_->flowMgr.get(); }
    net::TelemetryBroker *broker() { return rig_->broker.get(); }
    uint32_t brokerSubscriber() const { return rig_->brokerSub; }
    /** @} */
    /** Fleet-escalation hook: shun @p mac (quarantine + ARQ purge). */
    void quarantineMac(uint32_t mac)
    {
        rig_->stack->quarantineMac(*rig_->thread, mac);
    }
    /** @} */

    /** @name Invariant-gate observations @{ */
    const std::vector<FleetSend> &sends() const { return sends_; }
    /** Sends accepted by an earlier incarnation: delivery amnesty —
     * the restart wiped the ARQ state that guaranteed them. */
    const std::vector<FleetSend> &amnestySends() const
    {
        return amnestySends_;
    }
    uint64_t sendRefusals() const { return sendRefusals_; }
    /** Deliveries dropped because the embedded msgId did not match
     * the frame's source MAC (app tier only: forged provenance). */
    uint64_t spoofDrops() const { return spoofDrops_; }
    const std::vector<FleetDelivery> &deliveries() const
    {
        return deliveries_;
    }
    /** msgId → delivery count, this incarnation (exactly-once means
     * every value is 1). */
    const std::map<uint32_t, uint32_t> &deliveryCounts() const
    {
        return deliveryCounts_;
    }
    /** Deliveries across all incarnations (liveness: every accepted
     * message to this node lands at least once, eventually). */
    const std::map<uint32_t, uint32_t> &allTimeDeliveryCounts() const
    {
        return allTimeDeliveryCounts_;
    }
    /** Post-boot heap baseline (recaptured on restart). */
    uint64_t baselineFreeBytes() const { return baselineFree_; }
    uint64_t freeBytesNow();
    uint64_t safetyViolations() const
    {
        return rig_->injector.safetyViolations.value();
    }
    /** @} */

  private:
    /** Everything torn down and rebuilt by restart(). Order matters:
     * members boot in declaration order. */
    struct Rig
    {
        Rig(FleetNode &node, const FleetConfig &config);
        fault::FaultInjector injector;
        sim::Machine machine;
        rtos::Kernel kernel;
        net::NicDevice nic;
        net::NetCompartments parts;
        net::FlowCompartment flowParts;     ///< appTier only.
        net::BrokerCompartment brokerParts; ///< appTier only.
        rtos::Compartment *consumer = nullptr;
        rtos::Thread *thread = nullptr;
        std::unique_ptr<net::NetStack> stack;
        std::unique_ptr<net::FlowManager> flowMgr; ///< appTier only.
        std::unique_ptr<net::TelemetryBroker> broker;
        uint32_t brokerSub = 0;
    };

    void onDelivered(uint32_t srcMac, uint32_t msgId,
                     uint32_t sentRound);
    void captureBaseline();
    /** The "kernel" and "fleet" sections laid over the machine's. */
    template <class Self, class Image>
    static bool transferSections(Self &self, Image &image);

    FleetConfig config_;
    uint32_t id_;
    uint32_t incarnation_ = 0;
    uint32_t currentRound_ = 0;
    uint32_t nextMsg_ = 0;
    Rng trafficRng_;
    std::unique_ptr<Rig> rig_;
    std::vector<std::vector<uint8_t>> outbox_;
    std::vector<FleetSend> sends_;
    std::vector<FleetSend> amnestySends_;
    uint64_t sendRefusals_ = 0;
    uint64_t spoofDrops_ = 0;
    std::vector<FleetDelivery> deliveries_;
    std::map<uint32_t, uint32_t> deliveryCounts_;
    std::map<uint32_t, uint32_t> allTimeDeliveryCounts_;
    uint64_t baselineFree_ = 0;
};

/** One recorded chaos-engine event (the repro breadcrumb). */
struct ChaosEventRecord
{
    uint32_t index = 0; ///< Injection index within the campaign.
    uint32_t round = 0;
    std::string kind;
    uint32_t target = 0; ///< Port / node id.
    uint32_t param = 0;
};

struct ChaosConfig
{
    uint32_t startRound = 0;
    uint32_t endRound = 0; ///< Faults clear and partitions heal here.
    /** Lossy-link profile applied to every port during the window. */
    net::LinkFaultConfig linkFaults;
    /** Every N rounds, partition one seeded-random port for
     * partitionLength rounds (0 disables). */
    uint32_t partitionPeriod = 0;
    uint32_t partitionLength = 16;
    /** Every N rounds, arm a SwitchPortStall on the fabric injector
     * (0 disables). */
    uint32_t stallPeriod = 0;
    /** Every N rounds, arm a NicLinkDrop burst on one seeded-random
     * node's injector (0 disables). */
    uint32_t linkDropPeriod = 0;
    /** Device-fault quarantine: arm quarantineSite on this node at
     * quarantineRound, restart it restartDelay rounds later
     * (-1 disables). */
    int32_t quarantineNode = -1;
    uint32_t quarantineRound = 0;
    uint32_t restartDelay = 4;
    fault::FaultSite quarantineSite = fault::FaultSite::NicRingCorrupt;
};

class Fleet;

/** Seeded, recorded schedule of fleet-level fault events. */
class ChaosEngine
{
  public:
    ChaosEngine(uint64_t seed, ChaosConfig config)
        : config_(config), rng_(Rng::forStream(seed, 0xc4a05))
    {}

    /** Serial phase hook: apply everything scheduled for @p round. */
    void apply(uint32_t round, Fleet &fleet);

    const std::vector<ChaosEventRecord> &history() const
    {
        return history_;
    }
    const ChaosConfig &config() const { return config_; }

  private:
    void record(uint32_t round, const char *kind, uint32_t target,
                uint32_t param);

    ChaosConfig config_;
    Rng rng_;
    std::vector<ChaosEventRecord> history_;
    /** port → heal round for open partitions. */
    std::map<uint32_t, uint32_t> partitionHeals_;
    bool quarantineArmed_ = false;
    bool restartDone_ = false;
};

class Fleet
{
  public:
    explicit Fleet(const FleetConfig &config);

    uint32_t size() const
    {
        return static_cast<uint32_t>(nodes_.size());
    }
    FleetNode &node(uint32_t id) { return *nodes_.at(id); }
    net::VirtualSwitch &fabric() { return switch_; }
    fault::FaultInjector &fabricInjector() { return fabricInjector_; }
    uint32_t round() const { return round_; }
    const FleetConfig &config() const { return config_; }

    /** Attach the chaos engine driven from the serial phase. */
    void setChaos(ChaosEngine *chaos) { chaos_ = chaos; }

    /** Run @p rounds barrier rounds of @p traffic. */
    void run(uint32_t rounds, const FleetTraffic &traffic);
    /** Quiesce: no new traffic, pump/retransmit until every node's
     * ARQ is idle and the fabric is empty (or the round budget runs
     * out). Returns true when fully drained. */
    bool drain(uint32_t maxRounds);

    /** Restart @p id in place and re-point its switch port at the
     * fresh NIC (the ChaosEngine quarantine path). */
    void restartNode(uint32_t id);

    /** @name Debugger attach (round-barrier safe)
     * While a node is held, run()/drain() park it: its slice is
     * skipped (the debugger owns that Machine between rounds), while
     * its outbox still drains and its NIC still receives — the rest
     * of the fleet keeps its deterministic schedule. Attach/detach
     * may only happen between rounds, which is the only time the
     * caller holds control anyway (run() is synchronous). @{ */
    void debugAttach(uint32_t id);
    void debugDetach() { debugHeld_ = -1; }
    bool debugHeld(uint32_t id) const
    {
        return debugHeld_ == static_cast<int32_t>(id);
    }
    /** @} */

    /** Fleet-wide invariant probes. @{ */
    uint64_t totalSafetyViolations();
    bool anyPeerDead();
    /** @} */

    /** MACs escalated to fabric-level quarantine (port partitioned
     * and shunned by every node), in escalation order. */
    const std::vector<uint32_t> &fabricQuarantines() const
    {
        return fabricQuarantines_;
    }

  private:
    void parallelPhase(const FleetTraffic &traffic);
    void serialPhase();

    FleetConfig config_;
    net::VirtualSwitch switch_;
    fault::FaultInjector fabricInjector_;
    std::vector<std::unique_ptr<FleetNode>> nodes_;
    std::vector<uint32_t> ports_;
    ChaosEngine *chaos_ = nullptr;
    uint32_t round_ = 0;
    /** Node id parked for a debugger, or -1. Not serialized: the
     * debugger is an observer, not fleet state. */
    int32_t debugHeld_ = -1;
    std::vector<uint32_t> fabricQuarantines_;
};

} // namespace cheriot::sim

#endif // CHERIOT_SIM_FLEET_H
