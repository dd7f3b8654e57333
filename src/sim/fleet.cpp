#include "sim/fleet.h"

#include "mem/memory_map.h"
#include "util/log.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace cheriot::sim
{

using rtos::ArgVec;
using rtos::CallResult;
using rtos::CompartmentContext;

namespace
{

/** Stream ids under the fleet master seed. Node streams are indexed
 * so that every node's traffic and injector draws are independent of
 * every other node's (the per-site discipline, fleet-scaled). */
constexpr uint64_t kStreamTrafficBase = 0x71a0000;
constexpr uint64_t kStreamInjectorBase = 0x1213000;
constexpr uint64_t kStreamSwitch = 0x5717c4;
constexpr uint64_t kStreamFabricInjector = 0xfab41c;

/** Guest cycles idled per round on top of the pump/send work, so ARQ
 * timers (cycle-denominated) advance at a steady rate. */
constexpr uint64_t kIdleCyclesPerRound = 512;

/** Bound on each switch port's egress queue. */
constexpr uint32_t kSwitchQueueDepth = 64;

MachineConfig
nodeMachineConfig(const FleetConfig &config,
                  fault::FaultInjector *injector)
{
    MachineConfig c;
    c.core = config.core;
    c.sramSize = config.sramSize;
    c.heapOffset = config.heapOffset;
    c.heapSize = config.heapSize;
    c.injector = injector;
    return c;
}

} // namespace

// --- FleetNode ------------------------------------------------------

FleetNode::Rig::Rig(FleetNode &node, const FleetConfig &config)
    : injector(Rng::deriveStreamSeed(config.seed,
                                     kStreamInjectorBase + node.id())),
      machine(nodeMachineConfig(config, &injector)), kernel(machine),
      nic(machine.memory().sram())
{
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation);
    machine.memory().mmio().map(mem::kNicMmioBase, mem::kNicMmioSize,
                                &nic);
    nic.setFaultInjector(&injector);
    // TX frames leave the node through its outbox; the fleet's serial
    // phase moves them into the switch in port order, which is what
    // keeps a multithreaded fleet deterministic.
    nic.setTxSink([&node](const uint8_t *frame, uint32_t bytes) {
        node.outbox_.emplace_back(frame, frame + bytes);
    });
    parts = net::addNetCompartments(kernel);
    if (config.appTier) {
        flowParts = net::addFlowCompartment(kernel);
        brokerParts = net::addBrokerCompartment(kernel);
    }
    consumer = &kernel.createCompartment("consumer");
    const uint32_t handleIndex = consumer->addExport(
        {"handle",
         [&node](CompartmentContext &ctx, ArgVec &args) {
             const cap::Capability payload = args[0];
             const uint32_t len = args[1].address();
             // Plain mode: 4 header words, >= 2 payload words
             // (sentRound, msgId), 1 checksum word. App tier: the two
             // application words sit behind the 2-word flow header.
             const bool appTier = node.config_.appTier;
             const uint32_t appWords = appTier ? 4u : 2u;
             if (len < (net::kFleetHeaderWords + appWords + 1) * 4) {
                 return CallResult::ofInt(0);
             }
             const uint32_t base = payload.base();
             const uint32_t appBase =
                 base + (net::kFleetHeaderWords + appWords - 2) * 4;
             const uint32_t src = ctx.mem.loadWord(payload, base + 4);
             const uint32_t sentRound =
                 ctx.mem.loadWord(payload, appBase);
             const uint32_t msgId =
                 ctx.mem.loadWord(payload, appBase + 4);
             if (appTier && (msgId >> 20) != src - 1) {
                 // Forged provenance: the msgId namespace is the
                 // sender's node id, and this frame's source MAC
                 // does not own it.
                 node.spoofDrops_++;
                 return CallResult::ofInt(0);
             }
             node.onDelivered(src, msgId, sentRound);
             return CallResult::ofInt(1);
         },
         /*interruptsDisabled=*/false});
    thread = &kernel.createThread("fleet", 2, 4096);
    std::string error;
    if (!kernel.finalizeBoot(&error)) {
        fatal("fleet: node %u boot failed: %s", node.id(),
              error.c_str());
    }
    kernel.activate(*thread);

    net::NetStackConfig stackConfig = config.stack;
    stackConfig.reliable = true;
    stackConfig.localMac = node.mac();
    // Each boot is a new epoch: receivers distinguish this
    // incarnation's fresh sequence space from the old one's.
    stackConfig.arqEpoch = node.incarnation();
    stack = std::make_unique<net::NetStack>(kernel, nic, parts,
                                            stackConfig);
    if (config.appTier) {
        net::FlowConfig flowConfig = config.flow;
        flowConfig.epoch = node.incarnation();
        flowMgr = std::make_unique<net::FlowManager>(
            kernel, *stack, flowParts, flowConfig);
        flowMgr->setFaultInjector(&injector);
        broker = std::make_unique<net::TelemetryBroker>(
            kernel, brokerParts, config.broker);
        broker->setFaultInjector(&injector);
        broker->connect();
        net::NetStack *stackPtr = stack.get();
        broker->setInflightHooks(
            [stackPtr](uint32_t mac, uint64_t bytes) {
                return stackPtr->chargeInflight(mac, bytes);
            },
            [stackPtr](uint32_t mac, uint64_t bytes) {
                stackPtr->creditInflight(mac, bytes);
            });
        // Delivered flow segments fan out to the broker (as
        // publications) and to the recording consumer.
        flowMgr->connect(
            {{broker->ingestImport()},
             {kernel.importOf(*consumer, handleIndex)}});
        stack->connect({{flowMgr->deliverImport(), false}});
        brokerSub = broker->subscribe(0x7);
    } else {
        stack->connect(
            {{kernel.importOf(*consumer, handleIndex), false}});
    }
    stack->start(*thread);
}

FleetNode::FleetNode(const FleetConfig &config, uint32_t id)
    : config_(config), id_(id),
      trafficRng_(Rng::forStream(config.seed, kStreamTrafficBase + id))
{
    rig_ = std::make_unique<Rig>(*this, config_);
    captureBaseline();
}

void
FleetNode::runSlice(uint32_t round, const FleetTraffic &traffic,
                    uint32_t fleetNodes)
{
    currentRound_ = round;
    const bool isRogue =
        config_.rogueNode >= 0 &&
        static_cast<uint32_t>(config_.rogueNode) == id_;
    const bool rogueElsewhere =
        config_.rogueNode >= 0 && !isRogue &&
        static_cast<uint32_t>(config_.rogueNode) < fleetNodes;
    const uint32_t honestOthers =
        fleetNodes - 1 - (rogueElsewhere ? 1 : 0);
    if (!isRogue && honestOthers > 0 && traffic.sendPermille > 0 &&
        trafficRng_.chance(traffic.sendPermille, 1000)) {
        // Uniform destination among the *other* nodes.
        uint32_t dst = trafficRng_.below(fleetNodes - 1);
        if (dst >= id_) {
            dst++;
        }
        // Honest devices have no business talking to the rogue; remap
        // deterministically so the exactly-once gate stays clean.
        if (rogueElsewhere &&
            dst == static_cast<uint32_t>(config_.rogueNode)) {
            do {
                dst = (dst + 1) % fleetNodes;
            } while (dst == id_ ||
                     dst == static_cast<uint32_t>(config_.rogueNode));
        }
        const uint32_t dstMac = dst + 1;
        const uint32_t msgId = (id_ << 20) | (nextMsg_++ & 0xfffff);
        if (config_.appTier) {
            net::FlowManager &fm = *rig_->flowMgr;
            if (!fm.txKnown(dstMac)) {
                fm.open(*rig_->thread, dstMac,
                        static_cast<net::FlowClass>((id_ ^ dst) % 3));
            }
            const auto result =
                fm.send(*rig_->thread, dstMac, round, msgId);
            if (result == net::FlowManager::SendResult::Ok) {
                sends_.push_back({dstMac, msgId, round});
            } else {
                sendRefusals_++;
            }
        } else if (rig_->stack->sendMessage(*rig_->thread, dstMac,
                                            traffic.payloadWords,
                                            round, msgId)) {
            sends_.push_back({dstMac, msgId, round});
        } else {
            sendRefusals_++;
        }
    }
    rig_->stack->pump(*rig_->thread);
    if (config_.appTier) {
        // Quiesce (drain) rounds go silent: no keepalive probes.
        rig_->flowMgr->service(*rig_->thread,
                               traffic.sendPermille != 0);
        // A slow-but-live subscriber: drain up to two broker records
        // per round, so queues bound under load and empty at drain.
        net::TelemetryBroker::Record record;
        for (int i = 0; i < 2; ++i) {
            if (!rig_->broker->poll(*rig_->thread, rig_->brokerSub,
                                    &record)) {
                break;
            }
        }
    }
    rig_->machine.idle(kIdleCyclesPerRound);
}

bool
FleetNode::sendNow(uint32_t dstMac, uint32_t payloadWords,
                   uint32_t round)
{
    const uint32_t msgId = (id_ << 20) | (nextMsg_++ & 0xfffff);
    if (!rig_->stack->sendMessage(*rig_->thread, dstMac, payloadWords,
                                  round, msgId)) {
        sendRefusals_++;
        return false;
    }
    sends_.push_back({dstMac, msgId, round});
    return true;
}

void
FleetNode::restart()
{
    // The old incarnation's accepted-but-unacked sends lose their
    // delivery guarantee (the ARQ state that backed them is gone):
    // they move to the amnesty log, where the invariant gate demands
    // "at most once" instead of "exactly once".
    amnestySends_.insert(amnestySends_.end(), sends_.begin(),
                         sends_.end());
    sends_.clear();
    // Per-incarnation dedup restarts from scratch too.
    deliveryCounts_.clear();
    outbox_.clear();
    incarnation_++;
    rig_.reset(); // Tear down before the replacement boots.
    rig_ = std::make_unique<Rig>(*this, config_);
    captureBaseline();
}

template <class Self, class Image>
bool
FleetNode::transferSections(Self &self, Image &image)
{
    Rig &rig = *self.rig_;
    const auto kernel = [&](auto &a) {
        a.part(rig.kernel);
        return a.ok();
    };
    const auto fleet = [&](auto &a) {
        a.part(rig.nic);
        a.part(*rig.stack);
        if (self.config_.appTier) {
            a.part(*rig.flowMgr);
            a.part(*rig.broker);
        }
        a.u32(self.currentRound_);
        a.u32(self.nextMsg_);
        Rng::transfer(self.trafficRng_, a);
        return a.ok();
    };
    return image.section("kernel", kernel) && image.section("fleet", fleet);
}

snapshot::SnapshotImage
FleetNode::saveImage() const
{
    snapshot::SnapshotWriter out;
    rig_->machine.save(out);
    transferSections(*this, out);
    return out.finish();
}

bool
FleetNode::restoreImage(const snapshot::SnapshotImage &image)
{
    // Deterministic boot first, then lay the dynamic state over it —
    // the same discipline as every other snapshot consumer.
    rig_.reset();
    rig_ = std::make_unique<Rig>(*this, config_);
    snapshot::SnapshotReader in(image);
    return in.valid() && rig_->machine.restore(in) &&
           transferSections(*this, in);
}

void
FleetNode::onDelivered(uint32_t srcMac, uint32_t msgId,
                       uint32_t sentRound)
{
    deliveries_.push_back({srcMac, msgId, sentRound, currentRound_});
    deliveryCounts_[msgId]++;
    allTimeDeliveryCounts_[msgId]++;
}

void
FleetNode::captureBaseline()
{
    rig_->kernel.allocator().synchronise();
    baselineFree_ = rig_->kernel.allocator().freeBytes() +
                    rig_->kernel.allocator().slackBytes();
}

uint64_t
FleetNode::freeBytesNow()
{
    // Sweep until the quarantine is empty so the audit compares like
    // with like (freed-but-unswept chunks are latency, not leaks).
    // Slack held by live chunks counts as healable for the same
    // reason: a recycled ring buffer that landed on a chunk with an
    // absorbed sub-minimum remainder is placement, not a leak.
    for (int i = 0; i < 8; ++i) {
        rig_->kernel.allocator().synchronise();
        if (rig_->kernel.allocator().quarantinedBytes() == 0) {
            break;
        }
    }
    return rig_->kernel.allocator().freeBytes() +
           rig_->kernel.allocator().slackBytes();
}

// --- ChaosEngine ----------------------------------------------------

void
ChaosEngine::record(uint32_t round, const char *kind, uint32_t target,
                    uint32_t param)
{
    ChaosEventRecord event;
    event.index = static_cast<uint32_t>(history_.size());
    event.round = round;
    event.kind = kind;
    event.target = target;
    event.param = param;
    history_.push_back(event);
}

void
ChaosEngine::apply(uint32_t round, Fleet &fleet)
{
    net::VirtualSwitch &fabric = fleet.fabric();
    const uint32_t ports = fabric.portCount();

    // Heal due partitions first (heals can land after endRound).
    for (auto it = partitionHeals_.begin();
         it != partitionHeals_.end();) {
        if (round >= it->second) {
            fabric.setPartitioned(it->first, false);
            record(round, "heal", it->first, 0);
            it = partitionHeals_.erase(it);
        } else {
            ++it;
        }
    }

    if (round == config_.startRound && ports > 0) {
        for (uint32_t port = 0; port < ports; ++port) {
            fabric.setLinkFaults(port, config_.linkFaults);
        }
        record(round, "link-faults-on", ports,
               config_.linkFaults.dropPermille);
    }
    if (round == config_.endRound && ports > 0) {
        const net::LinkFaultConfig lossless;
        for (uint32_t port = 0; port < ports; ++port) {
            fabric.setLinkFaults(port, lossless);
        }
        // Everything still isolated heals now: the reconvergence
        // clock starts here.
        for (const auto &[port, healRound] : partitionHeals_) {
            fabric.setPartitioned(port, false);
            record(round, "heal", port, 0);
        }
        partitionHeals_.clear();
        record(round, "link-faults-off", ports, 0);
    }

    const bool inWindow =
        round >= config_.startRound && round < config_.endRound;
    if (inWindow && ports > 0) {
        const uint32_t offset = round - config_.startRound;
        if (config_.partitionPeriod != 0 && offset != 0 &&
            offset % config_.partitionPeriod == 0) {
            const uint32_t port = rng_.below(ports);
            if (!fabric.partitioned(port)) {
                fabric.setPartitioned(port, true);
                partitionHeals_[port] =
                    round + std::max(1u, config_.partitionLength);
                record(round, "partition", port,
                       config_.partitionLength);
            }
        }
        if (config_.stallPeriod != 0 && offset != 0 &&
            offset % config_.stallPeriod == 0) {
            fault::FaultPlan plan;
            plan.site = fault::FaultSite::SwitchPortStall;
            plan.triggerTransaction = 0; // Next fabric tick.
            plan.addr = rng_.next();
            plan.param = 1 + rng_.below(16);
            fleet.fabricInjector().arm(plan);
            record(round, "port-stall", plan.addr % ports, plan.param);
        }
        if (config_.linkDropPeriod != 0 && offset != 0 &&
            offset % config_.linkDropPeriod == 0) {
            const uint32_t target = rng_.below(fleet.size());
            fault::FaultPlan plan;
            plan.site = fault::FaultSite::NicLinkDrop;
            plan.triggerTransaction = 0; // Next arriving frame.
            plan.param = 1 + rng_.below(4);
            fleet.node(target).injector().arm(plan);
            record(round, "nic-link-drop", target, plan.param);
        }
    }

    if (config_.quarantineNode >= 0 &&
        static_cast<uint32_t>(config_.quarantineNode) < fleet.size()) {
        const uint32_t target =
            static_cast<uint32_t>(config_.quarantineNode);
        if (!quarantineArmed_ && round == config_.quarantineRound) {
            fault::FaultPlan plan;
            plan.site = config_.quarantineSite;
            plan.triggerTransaction = 0;
            plan.triggerCycle = fleet.node(target).machine().cycles();
            plan.addr = rng_.next();
            plan.param = rng_.next();
            fleet.node(target).injector().arm(plan);
            quarantineArmed_ = true;
            record(round, "quarantine-fault", target,
                   static_cast<uint32_t>(plan.site));
        }
        if (quarantineArmed_ && !restartDone_ &&
            round >= config_.quarantineRound + config_.restartDelay) {
            fleet.restartNode(target);
            restartDone_ = true;
            record(round, "restart", target,
                   fleet.node(target).incarnation());
        }
    }
}

// --- Fleet ----------------------------------------------------------

Fleet::Fleet(const FleetConfig &config)
    : config_(config),
      switch_(Rng::deriveStreamSeed(config.seed, kStreamSwitch),
              kSwitchQueueDepth),
      fabricInjector_(
          Rng::deriveStreamSeed(config.seed, kStreamFabricInjector))
{
    switch_.setFaultInjector(&fabricInjector_);
    for (uint32_t id = 0; id < config.nodes; ++id) {
        nodes_.push_back(std::make_unique<FleetNode>(config, id));
        ports_.push_back(switch_.addPort(&nodes_[id]->nic()));
    }
}

void
Fleet::parallelPhase(const FleetTraffic &traffic)
{
    const uint32_t count = size();
    uint32_t workers = config_.threads != 0
                           ? config_.threads
                           : std::thread::hardware_concurrency();
    workers = std::max(1u, std::min(workers, count));
    if (workers <= 1 || count <= 1) {
        for (auto &node : nodes_) {
            if (debugHeld(node->id())) {
                continue;
            }
            node->runSlice(round_, traffic, count);
        }
        return;
    }
    // Work-stealing over node ids: each node is touched by exactly
    // one thread, and nodes never share state, so any host schedule
    // produces the same fleet state at the barrier.
    std::atomic<uint32_t> cursor{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                const uint32_t id =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (id >= count) {
                    return;
                }
                if (debugHeld(id)) {
                    continue;
                }
                nodes_[id]->runSlice(round_, traffic, count);
            }
        });
    }
    for (std::thread &worker : pool) {
        worker.join();
    }
}

void
Fleet::serialPhase()
{
    if (chaos_ != nullptr) {
        chaos_->apply(round_, *this);
    }
    // Fabric-level quarantine: when enough independent nodes have
    // locally struck a MAC out, partition its port and have every
    // node shun it — one compromised device cannot outvote the fleet,
    // and two colluding local false-positives are the floor.
    if (config_.fabricQuarantineVotes > 0 &&
        config_.stack.firewall.admission) {
        std::map<uint32_t, uint32_t> votes;
        for (auto &node : nodes_) {
            for (uint32_t mac : node->stack().quarantinedMacs()) {
                votes[mac]++;
            }
        }
        for (const auto &[mac, count] : votes) {
            if (count < config_.fabricQuarantineVotes || mac == 0 ||
                mac > nodes_.size() ||
                std::find(fabricQuarantines_.begin(),
                          fabricQuarantines_.end(),
                          mac) != fabricQuarantines_.end()) {
                continue;
            }
            switch_.setPartitioned(ports_.at(mac - 1), true);
            for (auto &node : nodes_) {
                node->quarantineMac(mac);
            }
            fabricQuarantines_.push_back(mac);
        }
    }
    for (uint32_t id = 0; id < nodes_.size(); ++id) {
        auto &outbox = nodes_[id]->outbox();
        for (const std::vector<uint8_t> &frame : outbox) {
            switch_.ingress(ports_[id], frame.data(),
                            static_cast<uint32_t>(frame.size()));
        }
        outbox.clear();
    }
    switch_.tick();
}

void
Fleet::run(uint32_t rounds, const FleetTraffic &traffic)
{
    for (uint32_t r = 0; r < rounds; ++r) {
        parallelPhase(traffic);
        serialPhase();
        round_++;
    }
}

bool
Fleet::drain(uint32_t maxRounds)
{
    FleetTraffic quiet;
    quiet.sendPermille = 0;
    // Idle must hold for a few consecutive rounds: a drained ARQ can
    // still have stray acks/duplicates in NIC rings whose processing
    // emits one more control frame.
    uint32_t idleStreak = 0;
    for (uint32_t r = 0; r < maxRounds; ++r) {
        bool idle = switch_.queuedFrames() == 0;
        for (auto &node : nodes_) {
            idle = idle && node->stack().arqIdle();
        }
        idleStreak = idle ? idleStreak + 1 : 0;
        if (idleStreak >= 3) {
            return true;
        }
        parallelPhase(quiet);
        serialPhase();
        round_++;
    }
    return false;
}

void
Fleet::restartNode(uint32_t id)
{
    nodes_.at(id)->restart();
    switch_.attachNic(ports_.at(id), &nodes_[id]->nic());
}

void
Fleet::debugAttach(uint32_t id)
{
    if (id >= size()) {
        panic("fleet: debugAttach to nonexistent node %u", id);
    }
    if (debugHeld_ != -1) {
        panic("fleet: node %d is already debug-held", debugHeld_);
    }
    debugHeld_ = static_cast<int32_t>(id);
}

uint64_t
Fleet::totalSafetyViolations()
{
    uint64_t total = fabricInjector_.safetyViolations.value();
    for (auto &node : nodes_) {
        total += node->safetyViolations();
    }
    return total;
}

bool
Fleet::anyPeerDead()
{
    for (auto &node : nodes_) {
        for (uint32_t mac : node->stack().peerMacs()) {
            if (node->stack().peerDead(mac)) {
                return true;
            }
        }
    }
    return false;
}

} // namespace cheriot::sim
