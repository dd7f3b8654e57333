#include "workloads/iot/iot_app.h"

#include "mem/memory_map.h"
#include "net/net_stack.h"
#include "net/nic_device.h"
#include "rtos/kernel.h"
#include "util/log.h"
#include "workloads/iot/microvm.h"
#include "workloads/iot/packet_source.h"
#include "workloads/iot/tls_model.h"

#include <algorithm>

namespace cheriot::workloads
{

using cap::Capability;
using rtos::ArgVec;
using rtos::CallResult;
using rtos::CompartmentContext;

namespace
{

/** MQTT per-byte parsing budget. */
constexpr uint32_t kMqttParseCyclesPerByte = 30;

} // namespace

IotAppResult
runIotApp(const IotAppConfig &config)
{
    sim::MachineConfig machineConfig;
    machineConfig.core = config.core;
    machineConfig.sramSize = 160u << 10;
    machineConfig.heapOffset = 96u << 10;
    machineConfig.heapSize = 64u << 10;
    machineConfig.injector = config.injector;

    sim::Machine machine(machineConfig);
    rtos::Kernel kernel(machine);
    kernel.initHeap(config.mode);
    if (config.watchdogFaultBudget != 0 ||
        config.watchdogRestartDelayCycles != 0) {
        rtos::Watchdog::Policy policy = kernel.watchdog().policy();
        if (config.watchdogFaultBudget != 0) {
            policy.faultBudget = config.watchdogFaultBudget;
        }
        if (config.watchdogRestartDelayCycles != 0) {
            policy.restartDelayCycles = config.watchdogRestartDelayCycles;
        }
        kernel.watchdog().setPolicy(policy);
    }

    // The NIC: packets arrive by DMA into tagged SRAM through RX
    // descriptor rings; drops and errors feed back as interrupts.
    net::NicDevice nic(machine.memory().sram());
    machine.memory().mmio().map(mem::kNicMmioBase, mem::kNicMmioSize,
                                &nic);
    nic.setFaultInjector(config.injector);

    // One compartment per stack layer, as in the paper's application:
    // net_driver and firewall own the receive path (net_driver is the
    // sole importer of the NIC MMIO window), TLS and MQTT consume the
    // lent packet buffers, the JS engine animates LEDs beside them.
    net::NetCompartments netParts = net::addNetCompartments(kernel);
    rtos::Compartment &tls = kernel.createCompartment("tls");
    rtos::Compartment &mqtt = kernel.createCompartment("mqtt");
    rtos::Compartment &js = kernel.createCompartment("js");

    rtos::Thread &netThread = kernel.createThread("net", 2, 2048);
    rtos::Thread &jsThread = kernel.createThread("js", 1, 2048);

    std::string bootError;
    if (!kernel.finalizeBoot(&bootError)) {
        fatal("iot: boot verification failed: %s", bootError.c_str());
    }
    kernel.activate(netThread);

    TlsSession session;
    MicroVm vm(MicroVm::ledAnimationProgram());
    IotAppResult result;

    if (config.installErrorHandlers) {
        // The receive path's recovery policy: a fault anywhere below
        // the driver is contained by dropping the packet — unwind to
        // the scheduler loop, which simply polls the next arrival
        // (§5.2's error handling model).
        netParts.driver->setErrorHandler(
            [](CompartmentContext &, const rtos::FaultInfo &) {
                return rtos::HandlerDecision::forceUnwind();
            });
        netParts.firewall->setErrorHandler(
            [](CompartmentContext &, const rtos::FaultInfo &) {
                return rtos::HandlerDecision::forceUnwind();
            });
        // The JS engine degrades gracefully: a faulting tick keeps
        // the previous LED state rather than crashing the animation.
        js.setErrorHandler(
            [&vm](CompartmentContext &, const rtos::FaultInfo &) {
                return rtos::HandlerDecision::handled(
                    CallResult::ofInt(vm.ledState()));
            });
    }

    // --- TLS compartment ------------------------------------------------
    const uint32_t tlsHandshake = tls.addExport(
        {"handshake",
         [&](CompartmentContext &ctx, ArgVec &) {
             session.handshake(ctx);
             return CallResult::ofInt(1);
         },
         false});
    const uint32_t tlsProcess = tls.addExport(
        {"process",
         [&](CompartmentContext &ctx, ArgVec &args) {
             const Capability record = args[0];
             const uint32_t bytes = args[1].address();
             const uint32_t auth =
                 session.processRecord(ctx, record, bytes);
             return CallResult::ofInt(auth);
         },
         false});

    // --- MQTT compartment -----------------------------------------------
    const uint32_t mqttHandle = mqtt.addExport(
        {"handle",
         [&](CompartmentContext &ctx, ArgVec &args) {
             const Capability record = args[0];
             const uint32_t bytes = args[1].address();
             // Parse the fixed header and topic through the record.
             uint32_t topicHash = 0;
             const uint32_t headerWords = std::min(bytes / 4, 8u);
             for (uint32_t i = 0; i < headerWords; ++i) {
                 topicHash ^=
                     ctx.mem.loadWord(record, record.base() + i * 4);
             }
             ctx.mem.chargeExecution(bytes * kMqttParseCyclesPerByte);
             return CallResult::ofInt(topicHash);
         },
         false});

    // --- The network stack -------------------------------------------------
    // TLS decrypts records in place, so it is the mutating consumer;
    // MQTT sees the read-only view of the same buffer.
    net::NetStackConfig netConfig;
    net::NetStack stack(kernel, nic, netParts, netConfig);
    stack.connect({{kernel.importOf(tls, tlsProcess), /*mutates=*/true},
                   {kernel.importOf(mqtt, mqttHandle),
                    /*mutates=*/false}});
    stack.start(netThread);

    // --- JS compartment ---------------------------------------------------
    const uint32_t jsTick = js.addExport(
        {"tick",
         [&](CompartmentContext &ctx, ArgVec &) {
             if (!vm.tick(ctx)) {
                 // A heap service failed mid-tick: surface it as a
                 // fault in the JS compartment so the error-handler /
                 // unwind machinery decides the outcome.
                 return CallResult::faulted(
                     sim::TrapCause::LoadAccessFault);
             }
             return CallResult::ofInt(vm.ledState());
         },
         false});

    // --- Wire the schedule -------------------------------------------------
    rtos::Scheduler &scheduler = kernel.scheduler();
    PacketSource source(config.clockHz, config.packetsPerSec);
    const auto jsTickImport = kernel.importOf(js, jsTick);
    const auto tlsHandshakeImport = kernel.importOf(tls, tlsHandshake);
    uint32_t frameSeq = 0;

    const uint64_t horizon =
        static_cast<uint64_t>(config.simSeconds * config.clockHz);

    // Connection establishment happens first and is part of the
    // measured minute (one-shot task: its period exceeds the horizon).
    scheduler.addPeriodicWithDelay("tls-handshake", horizon * 2, 0, 3,
                                   [&] {
                                       kernel.activate(netThread);
                                       const CallResult done = kernel.call(
                                           netThread, tlsHandshakeImport,
                                           {});
                                       result.handshakeCompleted =
                                           done.ok();
                                   });

    // Network poll: deliver due arrivals into the NIC (the arrival
    // process is the frame generator now), then pump the driver.
    scheduler.addPeriodic(
        "net-poll", config.clockHz / (config.packetsPerSec * 4), 2, [&] {
            kernel.activate(netThread);
            Packet packet;
            while (source.poll(machine.cycles(), &packet)) {
                const auto frame =
                    net::buildFrame(frameSeq++, packet.bytes);
                nic.deliver(frame.data(),
                            static_cast<uint32_t>(frame.size()));
            }
            if (nic.interruptPending()) {
                stack.pump(netThread);
            }
        });

    // The 10 ms JavaScript animation tick. Elastic work: under heap
    // overload (quarantine holding most of the heap hostage, or free
    // memory too low to repost a ring buffer) the admission gate
    // defers the tick so the receive path can drain — the PR-3
    // pressure machinery fed by ring-full backpressure. The
    // thresholds are far outside a healthy run's envelope.
    scheduler.addPeriodic("js-tick", config.clockHz / config.jsTickHz, 1,
                          [&] {
                              kernel.activate(jsThread);
                              kernel.call(jsThread, jsTickImport, {});
                          });
    const Capability pressure = kernel.heapPressureCap();
    const uint32_t heapSize = machineConfig.heapSize;
    const uint32_t bufBytes = netConfig.bufBytes;
    kernel.scheduler().setAdmissionGate(
        [&kernel, pressure, heapSize,
         bufBytes](const rtos::Scheduler::Task &task) {
            if (task.name != "js-tick") {
                return false;
            }
            const uint32_t quarantined = kernel.guest().loadWord(
                pressure,
                pressure.base() +
                    rtos::HeapPressureDevice::kRegQuarantinedBytes);
            const uint32_t freeBytes = kernel.guest().loadWord(
                pressure,
                pressure.base() + rtos::HeapPressureDevice::kRegFreeBytes);
            return quarantined > heapSize - heapSize / 4 ||
                   freeBytes < 2 * bufBytes;
        });

    // Measurement baselines are captured at the end of the (fully
    // deterministic) boot, *before* any restore rewinds the clock to
    // the checkpointed cycle: a resumed run then measures the same
    // window as the uninterrupted one it continues.
    const uint64_t measureStartCycle = machine.cycles();
    const uint64_t measureStartIdle = scheduler.idleCycles();
    const uint64_t endCycle = measureStartCycle + horizon;

    // Everything mutable that the workload depends on goes into the
    // checkpoint: the machine, the kernel's dynamic state, and the
    // host-side workload models — including the NIC's registers and
    // the stack's ring cursors / slot capabilities, which are not
    // part of the machine image.
    const auto kernelSection = [&](auto &a) {
        a.part(kernel);
        return a.ok();
    };
    const auto iotSection = [&](auto &a) {
        a.part(session);
        a.part(vm);
        a.part(source);
        a.part(nic);
        a.part(stack);
        a.u32(frameSeq);
        a.b(result.handshakeCompleted);
        return a.ok();
    };
    const auto takeCheckpoint = [&] {
        snapshot::SnapshotWriter out;
        machine.save(out);
        out.section("kernel", kernelSection);
        out.section("iot", iotSection);
        return out.finish();
    };

    if (config.resumeImage != nullptr) {
        snapshot::SnapshotReader in(*config.resumeImage);
        if (!in.valid() || !machine.restore(in)) {
            fatal("iot: resume image rejected by the machine (%s)",
                  in.error().c_str());
        }
        if (!in.section("kernel", kernelSection)) {
            fatal("iot: resume image rejected by the kernel");
        }
        if (!in.section("iot", iotSection)) {
            fatal("iot: resume image rejected by the workload");
        }
    }
    if (config.preRunSnapshotOut != nullptr) {
        *config.preRunSnapshotOut = takeCheckpoint();
    }

    const uint64_t stopCycle =
        config.maxRunCycles == 0
            ? endCycle
            : std::min(endCycle, measureStartCycle + config.maxRunCycles);
    bool faultProbed = false;
    while (machine.cycles() < stopCycle) {
        if (config.faultProbeAtCycle != 0 && !faultProbed &&
            machine.cycles() >=
                measureStartCycle + config.faultProbeAtCycle) {
            // The scripted capability fault for the debugger
            // walkthrough: a 16-byte heap view read 16 bytes past its
            // top. The bounds check fails before memory is touched,
            // so the probe leaves machine state (beyond the charged
            // access cycles) untouched; an attached stub sees it as a
            // CHERI bounds-violation stop through the checked-op
            // hooks.
            faultProbed = true;
            const Capability probe =
                Capability::memoryRoot()
                    .withAddress(mem::kSramBase +
                                 machineConfig.heapOffset)
                    .withBounds(16);
            uint32_t scratch = 0;
            machine.loadData(probe, probe.base() + 32, 4,
                             /*signExtend=*/false, &scratch);
        }
        if (config.debugPoll) {
            config.debugPoll(machine, kernel);
        }
        uint64_t slice = stopCycle - machine.cycles();
        if (config.checkpointIntervalCycles != 0) {
            slice = std::min(slice, config.checkpointIntervalCycles);
        }
        if (config.debugPoll || config.faultProbeAtCycle != 0) {
            // Pause every simulated millisecond so the debug seam
            // stays responsive (stop delivery, ^C) and the fault
            // probe lands near its requested cycle.
            slice = std::min(slice, config.clockHz / 1000);
        }
        scheduler.runFor(slice);
        if (config.checkpoints != nullptr &&
            machine.cycles() < endCycle) {
            config.checkpoints->store(takeCheckpoint());
        }
    }
    if (config.debugPoll) {
        // One final poll with the run complete, so a ^C that raced
        // the horizon still gets its stop reply (and a last look at
        // the machine) before the harness reports target exit.
        config.debugPoll(machine, kernel);
    }

    const uint64_t measured = machine.cycles() - measureStartCycle;
    const uint64_t idled = scheduler.idleCycles() - measureStartIdle;
    result.cpuLoad = measured == 0
                         ? 0.0
                         : 1.0 - static_cast<double>(idled) /
                                     static_cast<double>(measured);
    result.cycles = horizon;
    result.finalDigest = machine.stateDigest();
    result.packetsProcessed = stack.packetsAccepted();
    result.bytesReceived = stack.bytesAccepted();
    result.jsTicks = vm.ticks();
    result.jsObjects = vm.objectsAllocated();
    result.gcPasses = vm.gcPasses();
    result.heapAllocations = kernel.allocator().mallocs.value();
    result.revocationSweeps = kernel.allocator().sweepsTriggered.value();
    result.crossCompartmentCalls = kernel.switcher().calls.value();
    result.finalLedState = vm.ledState();
    result.calleeFaults = kernel.switcher().calleeFaults.value();
    result.handlerInvocations = kernel.switcher().handlerInvocations.value();
    result.forcedUnwinds = kernel.switcher().forcedUnwindFrames.value();
    result.watchdogQuarantines = kernel.watchdog().quarantines.value();
    result.watchdogRestarts = kernel.watchdog().restarts.value();
    result.revokerKicks = kernel.hardwareRevoker() != nullptr
                              ? kernel.hardwareRevoker()->timeoutKicks.value()
                              : 0;
    result.busRetries = machine.bus().retries.value();
    result.busDelayCycles = machine.bus().delayCycles.value();
    result.trapsTaken = machine.trapCount();
    result.nicRxPackets = nic.rxPackets();
    result.nicRxDrops = nic.rxDrops();
    result.nicRxErrors = nic.rxErrors();
    result.nicTxPackets = nic.txPackets();
    result.netParseDrops = stack.parseDrops();
    result.netRingCorruptionsDetected = stack.ringCorruptionsDetected();
    result.netRefillFailures = stack.refillFailures();
    result.netAcksSent = stack.acksSent();
    result.ok = result.handshakeCompleted && result.packetsProcessed > 0 &&
                vm.ticks() > 0;
    return result;
}

} // namespace cheriot::workloads
