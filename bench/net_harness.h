/**
 * @file
 * The NIC + zero-copy network-stack traffic run shared by
 * `net_throughput` (the million-packet harness) and `golden_digests`
 * (the fixed-count end-state record): boot a kernel with the NIC and
 * the compartmentalized stack on one core, push checksum-balanced
 * frames until @p targetPackets are accepted, drain, sweep, and audit
 * the heap against the post-boot baseline.
 */

#ifndef CHERIOT_BENCH_NET_HARNESS_H
#define CHERIOT_BENCH_NET_HARNESS_H

#include "mem/memory_map.h"
#include "net/net_stack.h"
#include "net/nic_device.h"
#include "report.h"
#include "rtos/kernel.h"
#include "util/log.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

namespace cheriot::bench
{

struct NetRow
{
    std::string core;
    uint64_t packetsAccepted = 0;
    uint64_t bytesAccepted = 0;
    double hostSeconds = 0.0;
    double packetsPerSec = 0.0;
    double cyclesPerPacket = 0.0;
    uint64_t nicRxDrops = 0;
    uint64_t nicRxErrors = 0;
    uint64_t parseDrops = 0;
    uint64_t acksSent = 0;
    uint64_t nicTxPackets = 0;
    uint64_t maxQuarantineBytes = 0;
    int64_t leakedBytes = 0;
    uint64_t calleeFaults = 0;
    uint64_t traps = 0;
    bool ok = false;
    StatsMap stats; ///< simStats snapshot at end of run.
    uint32_t finalDigest = 0; ///< Machine::stateDigest at end of run.
};

inline void
describe(const NetRow &r, Fields &f)
{
    f.put("core", r.core)
        .put("packets", r.packetsAccepted)
        .put("bytes", r.bytesAccepted)
        .host("host_seconds", r.hostSeconds)
        .host("packets_per_sec", r.packetsPerSec)
        .put("cycles_per_packet", r.cyclesPerPacket)
        .put("nic_rx_drops", r.nicRxDrops)
        .put("nic_rx_errors", r.nicRxErrors)
        .put("parse_drops", r.parseDrops)
        .put("acks_sent", r.acksSent)
        .put("nic_tx_packets", r.nicTxPackets)
        .put("max_quarantine_bytes", r.maxQuarantineBytes)
        .put("leaked_bytes", r.leakedBytes)
        .put("callee_faults", r.calleeFaults)
        .put("traps", r.traps)
        .put("ok", r.ok)
        .put("stats", r.stats);
}

inline NetRow
runNetCore(const sim::CoreConfig &core, const std::string &name,
           uint64_t targetPackets)
{
    NetRow row;
    row.core = name;

    sim::MachineConfig mc;
    mc.core = core;
    mc.sramSize = 320u << 10;
    mc.heapOffset = 64u << 10;
    mc.heapSize = 256u << 10;
    sim::Machine machine(mc);
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation);

    net::NicDevice nic(machine.memory().sram());
    machine.memory().mmio().map(mem::kNicMmioBase, mem::kNicMmioSize,
                                &nic);
    net::NetCompartments parts = net::addNetCompartments(kernel);
    rtos::Compartment &app = kernel.createCompartment("app");
    rtos::Thread &thread = kernel.createThread("net", 2, 4096);

    std::string bootError;
    if (!kernel.finalizeBoot(&bootError)) {
        fatal("net_throughput: boot verification failed: %s",
              bootError.c_str());
    }
    kernel.activate(thread);

    // The application sink: reads the frame header through the
    // read-only lent view. Returns nonzero = packet consumed.
    const uint32_t appHandle = app.addExport(
        {"handle",
         [](rtos::CompartmentContext &ctx, rtos::ArgVec &args) {
             const cap::Capability payload = args[0];
             const uint32_t bytes = args[1].address();
             uint32_t sum = 0;
             const uint32_t words = std::min(bytes / 4, 4u);
             for (uint32_t i = 0; i < words; ++i) {
                 sum ^= ctx.mem.loadWord(payload,
                                         payload.base() + i * 4);
             }
             return rtos::CallResult::ofInt(sum | 1u);
         },
         false});

    net::NetStackConfig cfg;
    cfg.rxRingEntries = 16;
    cfg.txRingEntries = 8;
    cfg.bufBytes = 256;
    cfg.ackEveryN = 64;
    net::NetStack stack(kernel, nic, parts, cfg);
    stack.connect({{kernel.importOf(app, appHandle),
                    /*mutates=*/false}});
    stack.start(thread);

    // Post-boot heap baseline: the ring buffers are live (posted);
    // everything the traffic run allocates on top must come back.
    kernel.allocator().synchronise();
    const uint64_t baselineFree = kernel.allocator().freeBytes() +
                                  kernel.allocator().slackBytes();
    const uint64_t startCycles = machine.cycles();
    const auto startWall = std::chrono::steady_clock::now();

    uint32_t seq = 0;
    uint64_t maxQuarantine = 0;
    while (stack.packetsAccepted() < targetPackets) {
        const std::vector<uint8_t> frame =
            net::buildFrame(seq, 64 + seq % 128);
        if (nic.deliver(frame.data(),
                        static_cast<uint32_t>(frame.size()))) {
            ++seq;
            if ((seq & 7u) != 0) {
                continue; // Burst until a ring's worth is in flight.
            }
        }
        stack.pump(thread);
        maxQuarantine = std::max(maxQuarantine,
                                 kernel.allocator().quarantinedBytes());
    }
    // Drain: consume everything in flight first, then sweep until the
    // quarantine is empty so the leak audit compares like with like
    // (freed-but-unswept chunks are not leaks, they are latency).
    stack.pump(thread);
    stack.pump(thread);
    for (int i = 0; i < 4 && kernel.allocator().quarantinedBytes() > 0;
         ++i) {
        kernel.allocator().synchronise();
    }
    const auto wall = std::chrono::steady_clock::now() - startWall;
    row.hostSeconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(wall)
            .count();
    row.packetsAccepted = stack.packetsAccepted();
    row.bytesAccepted = stack.bytesAccepted();
    row.packetsPerSec = row.hostSeconds > 0.0
                            ? static_cast<double>(row.packetsAccepted) /
                                  row.hostSeconds
                            : 0.0;
    row.cyclesPerPacket =
        row.packetsAccepted > 0
            ? static_cast<double>(machine.cycles() - startCycles) /
                  static_cast<double>(row.packetsAccepted)
            : 0.0;
    row.nicRxDrops = nic.rxDrops();
    row.nicRxErrors = nic.rxErrors();
    row.parseDrops = stack.parseDrops();
    row.acksSent = stack.acksSent();
    row.nicTxPackets = nic.txPackets();
    row.maxQuarantineBytes = maxQuarantine;
    // Count live-chunk placement slack as healed: a recycled ring
    // buffer sitting on a chunk with an absorbed sub-minimum split
    // remainder holds 8-16 bytes off the free lists without leaking.
    row.leakedBytes =
        static_cast<int64_t>(baselineFree) -
        static_cast<int64_t>(kernel.allocator().freeBytes() +
                             kernel.allocator().slackBytes());
    row.calleeFaults = kernel.switcher().calleeFaults.value();
    row.traps = machine.trapCount();
    row.ok = row.packetsAccepted >= targetPackets &&
             row.leakedBytes == 0 && row.calleeFaults == 0 &&
             row.nicRxErrors == 0 && row.parseDrops == 0;
    row.stats = machine.simStats().snapshot();
    row.finalDigest = machine.stateDigest();
    return row;
}

} // namespace cheriot::bench

#endif // CHERIOT_BENCH_NET_HARNESS_H
