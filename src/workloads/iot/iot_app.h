/**
 * @file
 * The end-to-end IoT application of paper §7.2.3: a compartmentalized
 * network stack (net / TLS / MQTT), a JavaScript interpreter in its
 * own compartment animating LEDs every 10 ms, and the shared
 * temporally-safe heap — running on a 20 MHz area-optimised Ibex.
 *
 * Every network packet is a separate heap allocation; the JS engine's
 * objects come from the same heap and are bulk-freed at GC passes.
 * The headline measurement is CPU load averaged over the run
 * (including TLS connection establishment): the paper reports 17.5%,
 * i.e. 82.5% of cycles left to the idle thread.
 */

#ifndef CHERIOT_WORKLOADS_IOT_IOT_APP_H
#define CHERIOT_WORKLOADS_IOT_IOT_APP_H

#include "alloc/heap_allocator.h"
#include "sim/core_config.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"

#include <cstdint>
#include <functional>

namespace cheriot::fault
{
class FaultInjector;
}
namespace cheriot::sim
{
class Machine;
}
namespace cheriot::rtos
{
class Kernel;
}

namespace cheriot::workloads
{

struct IotAppConfig
{
    sim::CoreConfig core = sim::CoreConfig::ibex();
    uint64_t clockHz = 20'000'000;
    double simSeconds = 60.0;
    alloc::TemporalMode mode = alloc::TemporalMode::HardwareRevocation;
    uint32_t packetsPerSec = 20;
    /** Optional fault injector wired into the machine (campaigns). */
    fault::FaultInjector *injector = nullptr;
    /** Install per-compartment error handlers (drop-packet recovery
     * in net, degraded-tick recovery in js). */
    bool installErrorHandlers = false;
    /** Watchdog policy overrides (0 = keep the kernel default). */
    uint32_t watchdogFaultBudget = 0;
    uint64_t watchdogRestartDelayCycles = 0;

    /** @name Crash-consistent checkpointing
     * With a sink and a nonzero interval, the measured window is
     * sliced and a snapshot (machine + kernel + workload host state)
     * is stored every interval. The boot sequence is deterministic, so
     * a run killed at any point and restarted from resumeImage
     * finishes bit-identical to an uninterrupted one. @{ */
    uint64_t checkpointIntervalCycles = 0;
    snapshot::CheckpointManager *checkpoints = nullptr;
    /** Kill switch: stop the run this many measured cycles in (0 = run
     * to the horizon). Models a process dying mid-run: the schedule is
     * identical to the full run's — unlike shrinking simSeconds, which
     * changes horizon-derived task periods — so the checkpoints stored
     * before the kill lie on the uninterrupted run's trajectory. */
    uint64_t maxRunCycles = 0;
    /** Resume from this image instead of starting fresh after boot. */
    const snapshot::SnapshotImage *resumeImage = nullptr;

    /** @name Interactive debugging
     * debugPoll (when set) is called at every outer scheduling slice
     * boundary with the machine and kernel — the seam the e2e harness
     * uses to serve an attached GDB stub (the machine is paused and
     * consistent there). faultProbeAtCycle: at the first slice past
     * this measured cycle, the harness performs one deliberate
     * out-of-bounds read through a 16-byte heap capability — a
     * scripted capability fault for the debugger walkthrough to break
     * on (0 disables; the probe is host-issued and does not perturb
     * the guest schedule). @{ */
    std::function<void(sim::Machine &, rtos::Kernel &)> debugPoll;
    uint64_t faultProbeAtCycle = 0;
    /** @} */
    /** When set, receives the full system state (machine + kernel +
     * workload) at the start of the measured window — the pre-fault
     * image fault campaigns attach to repro records. */
    snapshot::SnapshotImage *preRunSnapshotOut = nullptr;
    /** @} */
};

struct IotAppResult
{
    double cpuLoad = 0.0; ///< Busy fraction (paper: 0.175).
    uint64_t cycles = 0;
    uint64_t packetsProcessed = 0;
    uint64_t bytesReceived = 0;
    uint64_t jsTicks = 0;
    uint64_t jsObjects = 0;
    uint64_t gcPasses = 0;
    uint64_t heapAllocations = 0;
    uint64_t revocationSweeps = 0;
    uint64_t crossCompartmentCalls = 0;
    uint32_t finalLedState = 0;
    bool handshakeCompleted = false;
    bool ok = false;

    /** @name Fault-recovery observability (campaign classification) @{ */
    uint64_t calleeFaults = 0;
    uint64_t handlerInvocations = 0;
    uint64_t forcedUnwinds = 0;
    uint64_t watchdogQuarantines = 0;
    uint64_t watchdogRestarts = 0;
    uint64_t revokerKicks = 0;
    uint64_t busRetries = 0;
    uint64_t busDelayCycles = 0;
    uint64_t trapsTaken = 0;
    /** @} */

    /** @name NIC / network-stack observability
     * The RX path is the real DMA path: packets land in the simulated
     * NIC's descriptor rings and flow net_driver → firewall → TLS →
     * MQTT as zero-copy capability lends. @{ */
    uint64_t nicRxPackets = 0;
    uint64_t nicRxDrops = 0;  ///< Ring-full backpressure drops.
    uint64_t nicRxErrors = 0; ///< Device-refused descriptors/buffers.
    uint64_t nicTxPackets = 0;
    uint64_t netParseDrops = 0; ///< Firewall checksum rejections.
    uint64_t netRingCorruptionsDetected = 0;
    uint64_t netRefillFailures = 0; ///< Heap-exhausted reposts.
    uint64_t netAcksSent = 0;
    /** @} */

    /** Whole-machine state digest at the end of the measured window:
     * an interrupted-and-resumed run must report the same digest as
     * an uninterrupted one. */
    uint32_t finalDigest = 0;
};

IotAppResult runIotApp(const IotAppConfig &config);

} // namespace cheriot::workloads

#endif // CHERIOT_WORKLOADS_IOT_IOT_APP_H
