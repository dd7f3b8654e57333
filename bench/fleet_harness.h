/**
 * @file
 * The fleet campaigns of `fleet_chaos`, shared with `golden_digests`.
 * The chaos campaign runs N independently-owned Machines on the
 * virtual switch, each speaking the reliable (ARQ) fleet protocol,
 * through a warmup → chaos → heal → drain schedule. The chaos
 * window applies a ≥10% drop/corrupt/duplicate/reorder/delay profile
 * to every link, opens and heals seeded partitions, stalls switch
 * ports, bursts NIC link drops, and quarantines one device with an
 * injected ring-corruption fault before restarting it in place.
 *
 * It gates on the fleet invariants:
 *  - zero corrupted-capability dereferences fleet-wide (every node's
 *    injector plus the fabric injector report no safety violations);
 *  - exactly-once delivery for every accepted message between
 *    surviving nodes, despite forced duplication and reordering;
 *  - at-least-once (all incarnations) into the restarted node, and
 *    at-most-once per incarnation — restart slides, never replays;
 *  - full reconvergence after heal: the fabric drains, no peer is
 *    left presumed-dead;
 *  - per-device heap audit: every node's free-byte count returns to
 *    its post-boot baseline after a final revocation sweep.
 *
 * The rogue campaign (runAppCampaign) gates on the containment of a
 * Byzantine device. A failing row prints the exact seed, the failing
 * link/node, the chaos schedule and a one-command repro line.
 */

#ifndef CHERIOT_BENCH_FLEET_HARNESS_H
#define CHERIOT_BENCH_FLEET_HARNESS_H

#include "net/switch.h"
#include "report.h"
#include "sim/fleet.h"
#include "util/stats.h"
#include "workloads/rogue/rogue_device.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace cheriot::bench
{

/** fleet_chaos's default seed. */
constexpr uint64_t kFleetChaosSeed = 0xf1ee7c8a;

struct LatencyRow
{
    uint32_t node = 0;
    uint64_t deliveries = 0;
    uint32_t p50 = 0;
    uint32_t p99 = 0;
};

/** Per-port fabric accounting (drop/stall attribution per device). */
struct PortRow
{
    uint32_t port = 0;
    uint64_t ingress = 0;
    uint64_t forwarded = 0;
    uint64_t queueDrops = 0;
    uint64_t faultDrops = 0;
    uint64_t partitionDrops = 0;
    uint64_t stallTicks = 0;
    uint64_t nicBackpressure = 0;
};

struct FleetRow
{
    std::string kind = "chaos"; ///< chaos | app-baseline | rogue.
    std::string core;
    uint32_t nodes = 0;
    uint32_t rounds = 0;
    uint64_t seed = 0;
    double hostSeconds = 0.0;
    double framesPerSec = 0.0;
    uint64_t fabricFrames = 0;
    uint64_t sendsAccepted = 0;
    uint64_t amnestySends = 0;
    uint64_t sendRefusals = 0;
    uint64_t delivered = 0;
    uint64_t retransmits = 0;
    uint64_t acksSent = 0;
    uint64_t probesSent = 0;
    uint64_t rejoins = 0;
    uint64_t peerDeaths = 0;
    uint64_t duplicatesDropped = 0;
    uint64_t refillTimeouts = 0;
    uint64_t switchQueueDrops = 0;
    uint64_t switchFaultDrops = 0;
    uint64_t switchCorrupted = 0;
    uint64_t switchDuplicated = 0;
    uint64_t switchReordered = 0;
    uint64_t switchDelayed = 0;
    uint64_t switchPartitionDrops = 0;
    uint64_t switchStallTicks = 0;
    uint64_t nicLinkDrops = 0;
    uint64_t chaosEvents = 0;
    uint64_t safetyViolations = 0;
    uint32_t restartIncarnation = 0;
    bool drained = false;
    bool ok = false;
    std::vector<LatencyRow> latency;
    std::vector<PortRow> ports;
    std::vector<uint64_t> retxHistogram;
    std::vector<std::string> failures;

    /** Rogue-phase extras (kind == rogue / app-baseline). */
    uint32_t rogueMac = 0;
    uint64_t rogueForged = 0;
    uint32_t rogueStrikesMax = 0;
    uint32_t localQuarantineVotes = 0;
    bool fabricQuarantined = false;
    uint64_t fwStrikes = 0;
    uint64_t fwMalformed = 0;
    uint64_t fwOversized = 0;
    uint64_t fwRateLimited = 0;
    uint64_t fwStaleEpochs = 0;
    uint64_t fwQuarantineDrops = 0;
    uint64_t flowOpens = 0;
    uint64_t flowAccepts = 0;
    uint64_t flowSegments = 0;
    uint64_t flowWindowStalls = 0;
    uint64_t flowResets = 0;
    uint64_t spoofDrops = 0;
    uint64_t brokerPublished = 0;
    uint64_t brokerDelivered = 0;
    std::array<uint64_t, 3> brokerShed = {0, 0, 0};
    uint64_t brokerBackpressure = 0;
    uint64_t brokerCorruptDrops = 0;
    uint64_t brokerHeapLive = 0;
    uint32_t honestP99 = 0;
    double p99Limit = 0.0;
    std::vector<StatsMap> nodeStats; ///< simStats per node, in node order.
};

inline uint32_t
percentile(std::vector<uint32_t> &values, uint32_t p)
{
    // Interpolated (R-7) estimator from util/stats.h; the old
    // nearest-rank truncation collapsed small-sample tails.
    std::vector<uint64_t> wide(values.begin(), values.end());
    return static_cast<uint32_t>(
        std::llround(percentileInterpolated(std::move(wide), p)));
}

/** Name every live heap chunk on @p node: a leak message that says
 * "16 bytes" is unactionable, one that says "1 live 24-byte internal
 * chunk at 0x..." points at the holder. */
inline std::string
describeLiveChunks(sim::FleetNode &node)
{
    std::string out;
    node.kernel().allocator().forEachChunk(
        [&](uint32_t addr, uint32_t size, bool inUse, bool internal) {
            if (!inUse) {
                return;
            }
            char buf[64];
            std::snprintf(buf, sizeof(buf), " [0x%x +%u%s]", addr,
                          size, internal ? " internal" : "");
            out += buf;
        });
    return out.empty() ? " (no live chunks: accounting drift)" : out;
}

inline void
fail(FleetRow &row, const std::string &what)
{
    row.failures.push_back(what);
}

/** Exactly-once gate, restart-aware (see file comment). */
inline void
checkDeliveryContract(sim::Fleet &fleet, uint32_t quarantined,
                      FleetRow &row)
{
    const uint32_t qMac = quarantined + 1;
    for (uint32_t id = 0; id < fleet.size(); ++id) {
        for (const sim::FleetSend &send : fleet.node(id).sends()) {
            sim::FleetNode &dst = fleet.node(send.dstMac - 1);
            const auto &counts = dst.deliveryCounts();
            const auto it = counts.find(send.msgId);
            const uint32_t seen = it == counts.end() ? 0 : it->second;
            if (send.dstMac == qMac) {
                // Into the restarted node: the pre-restart
                // incarnation may have consumed it, so require
                // at-least-once across incarnations and
                // at-most-once within the current one.
                if (seen > 1) {
                    fail(row, "msg " + std::to_string(send.msgId) +
                                  " from node " + std::to_string(id) +
                                  " replayed into restarted node");
                }
                const auto &allTime = dst.allTimeDeliveryCounts();
                if (allTime.count(send.msgId) == 0) {
                    fail(row, "msg " + std::to_string(send.msgId) +
                                  " from node " + std::to_string(id) +
                                  " lost across the restart");
                }
            } else if (seen != 1) {
                fail(row, "msg " + std::to_string(send.msgId) +
                              " from node " + std::to_string(id) +
                              " to mac " +
                              std::to_string(send.dstMac) +
                              " delivered " + std::to_string(seen) +
                              "x (want exactly once)");
            }
        }
        // Amnesty sends (accepted by a wiped incarnation): never
        // more than once — a restart must not replay.
        for (const sim::FleetSend &send :
             fleet.node(id).amnestySends()) {
            sim::FleetNode &dst = fleet.node(send.dstMac - 1);
            const auto &counts = dst.deliveryCounts();
            const auto it = counts.find(send.msgId);
            if (it != counts.end() && it->second > 1) {
                fail(row, "amnesty msg " + std::to_string(send.msgId) +
                              " delivered " +
                              std::to_string(it->second) + "x");
            }
        }
    }
}

/** Shared per-node metric sweep: ARQ/firewall/app counters, per-port
 * fabric accounting, the aggregate retransmit histogram, and per-node
 * latency percentiles. */
inline void
collectMetrics(sim::Fleet &fleet, FleetRow &row)
{
    row.fabricFrames = fleet.fabric().totalDelivered();
    row.retxHistogram.assign(net::NetStack::kRetxHistogramBuckets, 0);
    for (uint32_t id = 0; id < fleet.size(); ++id) {
        sim::FleetNode &node = fleet.node(id);
        net::NetStack &stack = node.stack();
        row.sendsAccepted += node.sends().size();
        row.amnestySends += node.amnestySends().size();
        row.sendRefusals += node.sendRefusals();
        row.spoofDrops += node.spoofDrops();
        row.delivered += stack.arqDelivered();
        row.retransmits += stack.arqRetransmits();
        row.acksSent += stack.arqAcksSent();
        row.probesSent += stack.arqProbesSent();
        row.rejoins += stack.arqRejoins();
        row.peerDeaths += stack.arqPeerDeaths();
        row.duplicatesDropped += stack.arqDuplicatesDropped();
        row.refillTimeouts += stack.refillTimeouts();
        row.nicLinkDrops += node.injector().nicLinkDrops.value();
        row.fwStrikes += stack.fwStrikes();
        row.fwMalformed += stack.fwMalformed();
        row.fwOversized += stack.fwOversized();
        row.fwRateLimited += stack.fwRateLimited();
        row.fwStaleEpochs += stack.fwStaleEpochs();
        row.fwQuarantineDrops += stack.fwQuarantineDrops();
        const std::vector<uint64_t> hist = stack.retxHistogram();
        for (size_t b = 0;
             b < hist.size() && b < row.retxHistogram.size(); ++b) {
            row.retxHistogram[b] += hist[b];
        }
        if (net::FlowManager *fm = node.flowManager()) {
            row.flowOpens += fm->opens();
            row.flowAccepts += fm->accepts();
            row.flowSegments += fm->segmentsSent();
            row.flowWindowStalls += fm->windowStalls();
            row.flowResets += fm->resetsSent() + fm->resetsReceived();
        }
        if (net::TelemetryBroker *broker = node.broker()) {
            row.brokerPublished += broker->published();
            row.brokerDelivered += broker->delivered();
            for (uint32_t c = 0; c < 3; ++c) {
                row.brokerShed[c] += broker->shedByClass(c);
            }
            row.brokerBackpressure += broker->backpressureRefusals();
            row.brokerCorruptDrops += broker->corruptDrops();
            row.brokerHeapLive += broker->heapBytesLive();
        }

        const net::VirtualSwitch::PortCounters &port =
            fleet.fabric().counters(id);
        row.switchQueueDrops += port.queueDrops;
        row.switchFaultDrops += port.faultDrops;
        row.switchCorrupted += port.corrupted;
        row.switchDuplicated += port.duplicated;
        row.switchReordered += port.reordered;
        row.switchDelayed += port.delayed;
        row.switchPartitionDrops += port.partitionDrops;
        row.switchStallTicks += port.stallTicks;
        PortRow portRow;
        portRow.port = id;
        portRow.ingress = port.ingressFrames;
        portRow.forwarded = port.forwarded;
        portRow.queueDrops = port.queueDrops;
        portRow.faultDrops = port.faultDrops;
        portRow.partitionDrops = port.partitionDrops;
        portRow.stallTicks = port.stallTicks;
        portRow.nicBackpressure = port.nicBackpressure;
        row.ports.push_back(portRow);

        std::vector<uint32_t> lats;
        lats.reserve(node.deliveries().size());
        for (const sim::FleetDelivery &d : node.deliveries()) {
            lats.push_back(d.recvRound - d.sentRound);
        }
        LatencyRow lat;
        lat.node = id;
        lat.deliveries = node.deliveries().size();
        lat.p50 = percentile(lats, 50);
        lat.p99 = percentile(lats, 99);
        row.latency.push_back(lat);
        row.nodeStats.push_back(node.machine().simStats().snapshot());
    }
    row.safetyViolations = fleet.totalSafetyViolations();
}

/** Strict exactly-once gate (no restart, so no amnesty carve-out). */
inline void
checkExactlyOnce(sim::Fleet &fleet, FleetRow &row)
{
    for (uint32_t id = 0; id < fleet.size(); ++id) {
        for (const sim::FleetSend &send : fleet.node(id).sends()) {
            sim::FleetNode &dst = fleet.node(send.dstMac - 1);
            const auto &counts = dst.deliveryCounts();
            const auto it = counts.find(send.msgId);
            const uint32_t seen = it == counts.end() ? 0 : it->second;
            if (seen != 1) {
                fail(row, "msg " + std::to_string(send.msgId) +
                              " from node " + std::to_string(id) +
                              " to mac " +
                              std::to_string(send.dstMac) +
                              " delivered " + std::to_string(seen) +
                              "x (want exactly once)");
            }
        }
    }
}

/** Pooled delivery-latency p99 across every node except @p skip. */
inline uint32_t
pooledP99(sim::Fleet &fleet, int32_t skip)
{
    std::vector<uint32_t> lats;
    for (uint32_t id = 0; id < fleet.size(); ++id) {
        if (skip >= 0 && id == static_cast<uint32_t>(skip)) {
            continue;
        }
        for (const sim::FleetDelivery &d :
             fleet.node(id).deliveries()) {
            lats.push_back(d.recvRound - d.sentRound);
        }
    }
    return percentile(lats, 99);
}

inline FleetRow
runCampaign(const sim::CoreConfig &core, const std::string &name,
            uint32_t nodes, uint32_t rounds, uint64_t seed)
{
    FleetRow row;
    row.core = name;
    row.nodes = nodes;
    row.rounds = rounds;
    row.seed = seed;

    sim::FleetConfig fc;
    fc.nodes = nodes;
    fc.seed = seed;
    fc.core = core;
    fc.stack.arqRtoStartCycles = 1024;
    fc.stack.arqRtoCapCycles = 16384;
    fc.stack.arqMaxRetries = 6;
    fc.stack.arqProbeIntervalCycles = 4096;
    sim::Fleet fleet(fc);

    // Schedule: 1/5 clean warmup, 3/5 chaos window, 1/5 active heal
    // tail, then a quiet drain until the fabric and every ARQ idle.
    const uint32_t warmup = rounds / 5;
    const uint32_t chaosLen = rounds * 3 / 5;
    sim::ChaosConfig cc;
    cc.startRound = warmup;
    cc.endRound = warmup + chaosLen;
    cc.linkFaults.dropPermille = 100;      // ≥10% of frames dropped,
    cc.linkFaults.corruptPermille = 100;   // corrupted,
    cc.linkFaults.duplicatePermille = 100; // duplicated,
    cc.linkFaults.reorderPermille = 100;   // reordered,
    cc.linkFaults.delayPermille = 100;     // and delayed.
    cc.partitionPeriod = std::max(4u, chaosLen / 6);
    cc.partitionLength = std::max(4u, chaosLen / 8);
    cc.stallPeriod = 11;
    cc.linkDropPeriod = 9;
    cc.quarantineNode = static_cast<int32_t>(nodes / 2);
    cc.quarantineRound = warmup + chaosLen / 3;
    cc.restartDelay = 4;
    cc.quarantineSite = fault::FaultSite::NicRingCorrupt;
    sim::ChaosEngine chaos(seed, cc);
    fleet.setChaos(&chaos);

    sim::FleetTraffic traffic;
    traffic.sendPermille = 600;
    traffic.payloadWords = 8;

    const auto startWall = std::chrono::steady_clock::now();
    fleet.run(rounds, traffic);
    row.drained = fleet.drain(/*maxRounds=*/rounds * 40);
    const auto wall = std::chrono::steady_clock::now() - startWall;
    row.hostSeconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(wall)
            .count();

    // ---- Metrics ----------------------------------------------------
    collectMetrics(fleet, row);
    row.framesPerSec =
        row.hostSeconds > 0.0
            ? static_cast<double>(row.fabricFrames) / row.hostSeconds
            : 0.0;
    row.chaosEvents = chaos.history().size();
    const uint32_t quarantined =
        static_cast<uint32_t>(cc.quarantineNode);
    row.restartIncarnation = fleet.node(quarantined).incarnation();

    // ---- Invariant gate ---------------------------------------------
    if (!row.drained) {
        fail(row, "fleet failed to drain after heal");
    }
    if (row.safetyViolations != 0) {
        fail(row, "corrupted-capability dereference observed (" +
                      std::to_string(row.safetyViolations) + ")");
    }
    if (fleet.anyPeerDead()) {
        fail(row, "a peer is still presumed dead after heal+drain");
    }
    if (row.restartIncarnation != 1) {
        fail(row, "quarantined node " + std::to_string(quarantined) +
                      " did not restart exactly once");
    }
    checkDeliveryContract(fleet, quarantined, row);
    for (uint32_t id = 0; id < nodes; ++id) {
        const uint64_t baseline = fleet.node(id).baselineFreeBytes();
        const uint64_t now = fleet.node(id).freeBytesNow();
        if (now != baseline) {
            fail(row, "node " + std::to_string(id) + " leaked " +
                          std::to_string(static_cast<int64_t>(
                              baseline - now)) +
                          " heap bytes:" +
                          describeLiveChunks(fleet.node(id)));
        }
    }
    // The chaos actually bit: a campaign that never exercised the
    // fault paths proves nothing.
    if (row.switchCorrupted == 0 || row.switchDuplicated == 0 ||
        row.switchReordered == 0 || row.retransmits == 0) {
        fail(row, "chaos window left a fault class unexercised");
    }
    row.ok = row.failures.empty();

    if (!row.ok) {
        std::fprintf(stderr,
                     "\nfleet_chaos FAILED (core=%s seed=0x%llx)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(seed));
        for (const std::string &why : row.failures) {
            std::fprintf(stderr, "  - %s\n", why.c_str());
        }
        std::fprintf(stderr, "chaos schedule (injection index, round, "
                             "event, link/node, param):\n");
        for (const sim::ChaosEventRecord &event : chaos.history()) {
            std::fprintf(stderr, "  [%3u] round %4u %-16s target=%u "
                                 "param=0x%x\n",
                         event.index, event.round, event.kind.c_str(),
                         event.target, event.param);
        }
        std::fprintf(stderr,
                     "repro: fleet_chaos --nodes %u --rounds %u "
                     "--seed 0x%llx\n",
                     nodes, rounds,
                     static_cast<unsigned long long>(seed));
    }
    return row;
}

/**
 * Application-tier campaign: every node runs flows + a telemetry
 * broker over the firewall-admitted ARQ stack. With @p withRogue one
 * node is driven by a host-side Byzantine forger through an attack
 * window; the gate demands containment (local quarantine within the
 * strike budget, fleet-level port partition), zero safety violations,
 * exactly-once honest delivery, bounded honest-latency degradation
 * against @p baselineP99, and a full heap-and-broker heal.
 */
inline FleetRow
runAppCampaign(const sim::CoreConfig &core, const std::string &name,
               uint32_t nodes, uint32_t rounds, uint64_t seed,
               bool withRogue, uint32_t baselineP99)
{
    FleetRow row;
    row.kind = withRogue ? "rogue" : "app-baseline";
    row.core = name;
    row.nodes = nodes;
    row.rounds = rounds;
    row.seed = seed;

    sim::FleetConfig fc;
    fc.nodes = nodes;
    fc.seed = seed;
    fc.core = core;
    // Application-tier rounds cost ~40k guest cycles (flow service,
    // broker calls): ARQ and keepalive timers scale with that, or
    // every ack loses the race against its own retransmit clock.
    fc.stack.arqRtoStartCycles = 131072;
    fc.stack.arqRtoCapCycles = 1u << 20;
    fc.stack.arqMaxRetries = 6;
    fc.stack.arqProbeIntervalCycles = 262144;
    fc.flow.keepaliveIdleCycles = 1u << 21;
    fc.appTier = true;
    fc.rogueNode = withRogue ? static_cast<int32_t>(nodes / 2) : -1;
    fc.fabricQuarantineVotes = 2;
    fc.stack.firewall.admission = true;
    fc.stack.firewall.strikeBudget = 8;
    net::FirewallRule rule;     // Wildcard rule for every device:
    rule.maxFrameBytes = 256;   // oversize floods violate it, honest
    rule.burstFrames = 24;      // flow segments never do.
    rule.ratePer1KCycles256 = 8 * 256;
    rule.maxInflightBytes = 16 * 1024;
    fc.stack.firewall.rules.push_back(rule);
    sim::Fleet fleet(fc);

    const uint32_t warmup = rounds / 5;
    const uint32_t attackLen = rounds * 3 / 5;
    workloads::RogueConfig rc;
    rc.startRound = warmup;
    rc.endRound = warmup + attackLen;
    rc.framesPerRound = 6;
    rc.oversizeWords = 120; // 500-byte frames: rule-oversized, yet
                            // comfortably inside the NIC buffer.
    const uint32_t rogueMac = static_cast<uint32_t>(nodes / 2) + 1;
    row.rogueMac = withRogue ? rogueMac : 0;
    workloads::RogueDevice rogue(rogueMac, seed, rc);

    sim::FleetTraffic traffic;
    traffic.sendPermille = 600;
    traffic.payloadWords = 8;

    const auto startWall = std::chrono::steady_clock::now();
    for (uint32_t r = 0; r < rounds; ++r) {
        if (withRogue) {
            rogue.emit(fleet.round(),
                       fleet.node(nodes / 2).outbox(), nodes);
        }
        fleet.run(1, traffic);
    }
    row.drained = fleet.drain(/*maxRounds=*/rounds * 40);
    const auto wall = std::chrono::steady_clock::now() - startWall;
    row.hostSeconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(wall)
            .count();

    // ---- Metrics ----------------------------------------------------
    collectMetrics(fleet, row);
    row.framesPerSec =
        row.hostSeconds > 0.0
            ? static_cast<double>(row.fabricFrames) / row.hostSeconds
            : 0.0;
    row.rogueForged = rogue.forged();
    row.honestP99 = pooledP99(fleet, fc.rogueNode);
    for (uint32_t id = 0; id < nodes; ++id) {
        net::NetStack &stack = fleet.node(id).stack();
        row.rogueStrikesMax = std::max(
            row.rogueStrikesMax, stack.deviceStrikes(rogueMac));
        if (withRogue && id != nodes / 2 &&
            stack.deviceQuarantined(rogueMac)) {
            row.localQuarantineVotes++;
        }
    }
    const auto &fabricQ = fleet.fabricQuarantines();
    row.fabricQuarantined =
        std::find(fabricQ.begin(), fabricQ.end(), rogueMac) !=
        fabricQ.end();

    // ---- Invariant gate ---------------------------------------------
    if (!row.drained) {
        fail(row, "fleet failed to drain after the attack window");
    }
    if (row.safetyViolations != 0) {
        fail(row, "corrupted-capability dereference observed (" +
                      std::to_string(row.safetyViolations) + ")");
    }
    if (fleet.anyPeerDead()) {
        fail(row, "a peer is still presumed dead after drain");
    }
    checkExactlyOnce(fleet, row);
    for (uint32_t id = 0; id < nodes; ++id) {
        const uint64_t baseline = fleet.node(id).baselineFreeBytes();
        const uint64_t now = fleet.node(id).freeBytesNow();
        if (now != baseline) {
            fail(row, "node " + std::to_string(id) + " leaked " +
                          std::to_string(
                              static_cast<int64_t>(baseline - now)) +
                          " heap bytes:" +
                          describeLiveChunks(fleet.node(id)));
        }
    }
    if (row.brokerHeapLive != 0) {
        fail(row, "broker heap did not heal to baseline (" +
                      std::to_string(row.brokerHeapLive) +
                      " bytes live)");
    }
    if (withRogue) {
        if (row.rogueForged == 0) {
            fail(row, "rogue device forged nothing");
        }
        if (!row.fabricQuarantined) {
            fail(row, "rogue was never escalated to fabric "
                      "quarantine");
        }
        for (const uint32_t mac : fabricQ) {
            if (mac != rogueMac) {
                fail(row, "honest mac " + std::to_string(mac) +
                              " was fabric-quarantined");
            }
        }
        for (uint32_t id = 0; id < nodes; ++id) {
            for (const uint32_t mac :
                 fleet.node(id).stack().quarantinedMacs()) {
                if (mac != rogueMac) {
                    fail(row, "node " + std::to_string(id) +
                                  " quarantined honest mac " +
                                  std::to_string(mac));
                }
            }
        }
        // Containment cost is bounded: no victim needed more than
        // twice the strike budget before the rogue went dark.
        if (row.rogueStrikesMax >
            2 * fc.stack.firewall.strikeBudget) {
            fail(row, "rogue accumulated " +
                          std::to_string(row.rogueStrikesMax) +
                          " strikes (budget " +
                          std::to_string(
                              fc.stack.firewall.strikeBudget) +
                          ")");
        }
        if (row.fwMalformed + row.fwOversized + row.fwRateLimited +
                row.fwStaleEpochs ==
            0) {
            fail(row, "no typed firewall rejects: the attack never "
                      "bit");
        }
        // Containment evidence, either level: a stack that shunned a
        // post-quarantine frame, or the fabric partition eating the
        // rogue's forgeries at its own port. Fast schedules see only
        // the latter — once the vote lands, every node purges the
        // MAC in the same serial phase, so no stack ever receives
        // another rogue frame.
        const uint64_t roguePortDrops =
            row.ports.at(nodes / 2).partitionDrops;
        if (row.fwQuarantineDrops == 0 && roguePortDrops == 0) {
            fail(row, "no post-quarantine drops at any stack and no "
                      "fabric drops on the rogue port: containment "
                      "never engaged");
        }
        // Bounded degradation: honest p99 within 8x the rogue-free
        // baseline (floor of 8 rounds absorbs tiny baselines).
        row.p99Limit = std::max(8.0 * baselineP99, 8.0);
        if (static_cast<double>(row.honestP99) > row.p99Limit) {
            fail(row, "honest p99 " + std::to_string(row.honestP99) +
                          " rounds exceeds bound " +
                          std::to_string(row.p99Limit) +
                          " (baseline " +
                          std::to_string(baselineP99) + ")");
        }
    }
    row.ok = row.failures.empty();

    if (!row.ok) {
        std::fprintf(stderr,
                     "\nfleet_chaos --rogue FAILED (%s core=%s "
                     "seed=0x%llx)\n",
                     row.kind.c_str(), name.c_str(),
                     static_cast<unsigned long long>(seed));
        for (const std::string &why : row.failures) {
            std::fprintf(stderr, "  - %s\n", why.c_str());
        }
        std::fprintf(stderr,
                     "repro: fleet_chaos --rogue --nodes %u "
                     "--rounds %u --seed 0x%llx\n",
                     nodes, rounds,
                     static_cast<unsigned long long>(seed));
    }
    return row;
}

inline void
describe(const LatencyRow &lat, Fields &f)
{
    f.put("node", lat.node)
        .put("deliveries", lat.deliveries)
        .put("p50_rounds", lat.p50)
        .put("p99_rounds", lat.p99);
}

inline void
describe(const PortRow &p, Fields &f)
{
    f.put("port", p.port)
        .put("ingress", p.ingress)
        .put("forwarded", p.forwarded)
        .put("queue_drops", p.queueDrops)
        .put("fault_drops", p.faultDrops)
        .put("partition_drops", p.partitionDrops)
        .put("stall_ticks", p.stallTicks)
        .put("nic_backpressure", p.nicBackpressure);
}

inline void
describe(const FleetRow &r, Fields &f)
{
    f.put("kind", r.kind)
        .put("core", r.core)
        .put("nodes", r.nodes)
        .put("rounds", r.rounds)
        .put("seed", r.seed)
        .host("host_seconds", r.hostSeconds)
        .host("frames_per_sec", r.framesPerSec)
        .put("fabric_frames", r.fabricFrames)
        .put("sends", r.sendsAccepted)
        .put("amnesty_sends", r.amnestySends)
        .put("send_refusals", r.sendRefusals)
        .put("delivered", r.delivered)
        .put("retransmits", r.retransmits)
        .put("acks", r.acksSent)
        .put("probes", r.probesSent)
        .put("rejoins", r.rejoins)
        .put("peer_deaths", r.peerDeaths)
        .put("duplicates_dropped", r.duplicatesDropped)
        .put("refill_timeouts", r.refillTimeouts)
        .put("queue_drops", r.switchQueueDrops)
        .put("fault_drops", r.switchFaultDrops)
        .put("corrupted", r.switchCorrupted)
        .put("duplicated", r.switchDuplicated)
        .put("reordered", r.switchReordered)
        .put("delayed", r.switchDelayed)
        .put("partition_drops", r.switchPartitionDrops)
        .put("stall_ticks", r.switchStallTicks)
        .put("nic_link_drops", r.nicLinkDrops)
        .put("chaos_events", r.chaosEvents)
        .put("safety_violations", r.safetyViolations)
        .put("restart_incarnation", r.restartIncarnation)
        .put("drained", r.drained)
        .put("latency", r.latency)
        .put("retx_histogram", r.retxHistogram)
        .put("ports", r.ports);
    if (r.kind != "chaos") {
        f.put("rogue_mac", r.rogueMac)
            .put("rogue_forged", r.rogueForged)
            .put("rogue_strikes_max", r.rogueStrikesMax)
            .put("local_quarantine_votes", r.localQuarantineVotes)
            .put("fabric_quarantined", r.fabricQuarantined)
            .put("fw_strikes", r.fwStrikes)
            .put("fw_malformed", r.fwMalformed)
            .put("fw_oversized", r.fwOversized)
            .put("fw_rate_limited", r.fwRateLimited)
            .put("fw_stale_epochs", r.fwStaleEpochs)
            .put("fw_quarantine_drops", r.fwQuarantineDrops)
            .put("flow_opens", r.flowOpens)
            .put("flow_accepts", r.flowAccepts)
            .put("flow_segments", r.flowSegments)
            .put("flow_window_stalls", r.flowWindowStalls)
            .put("flow_resets", r.flowResets)
            .put("spoof_drops", r.spoofDrops)
            .put("broker_published", r.brokerPublished)
            .put("broker_delivered", r.brokerDelivered)
            .put("broker_shed", r.brokerShed)
            .put("broker_backpressure", r.brokerBackpressure)
            .put("broker_corrupt_drops", r.brokerCorruptDrops)
            .put("broker_heap_live", r.brokerHeapLive)
            .put("honest_p99", r.honestP99)
            .put("p99_limit", r.p99Limit);
    }
    f.put("ok", r.ok).put("node_stats", r.nodeStats);
}

/** fleet_chaos's rows. Per core: the chaos campaign or, with
 * @p rogue, a rogue-free application-tier baseline (for the
 * degradation bound) then the Byzantine campaign. */
inline std::vector<FleetRow>
runFleetRows(uint32_t nodes, uint32_t rounds, uint64_t seed, bool rogue)
{
    std::vector<FleetRow> rows;
    for (const auto &[core, name] :
         {std::pair{sim::CoreConfig::ibex(), "ibex"},
          std::pair{sim::CoreConfig::flute(), "flute"}}) {
        if (!rogue) {
            rows.push_back(runCampaign(core, name, nodes, rounds, seed));
            continue;
        }
        rows.push_back(runAppCampaign(core, name, nodes, rounds, seed,
                                      /*withRogue=*/false, 0));
        const uint32_t baseP99 = rows.back().honestP99;
        rows.push_back(runAppCampaign(core, name, nodes, rounds, seed,
                                      /*withRogue=*/true, baseP99));
    }
    return rows;
}

} // namespace cheriot::bench

#endif // CHERIOT_BENCH_FLEET_HARNESS_H
