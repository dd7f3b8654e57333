/**
 * @file
 * Reproduces the end-to-end IoT measurement of paper §7.2.3: a
 * compartmentalized network stack (net/TLS/MQTT) and a JavaScript
 * interpreter animating LEDs every 10 ms on a 20 MHz CHERIoT-Ibex,
 * with every network packet and JS object a temporally-safe heap
 * allocation.
 *
 * The paper reports 17.5% CPU load averaged over one minute
 * (including TLS connection establishment), i.e. 82.5% of cycles in
 * the idle thread.
 */

#include "workloads/iot/iot_app.h"

#include "debug/gdb_server.h"
#include "debug/gdb_socket.h"
#include "flags.h"
#include "rtos/kernel.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

using namespace cheriot;
using namespace cheriot::workloads;

int
main(int argc, char **argv)
{
    bench::Flags flags("e2e_iot",
                       "[SECONDS] [--seconds S] [--gdb PORT] "
                       "[--fault-probe CYCLES]",
                       argc, argv);
    IotAppConfig config;
    config.simSeconds = flags.real("--seconds", config.simSeconds);
    // Serve one GDB client on 127.0.0.1:<port> (0 picks an ephemeral
    // port). The run blocks until it attaches.
    constexpr uint64_t kNoGdb = UINT64_MAX;
    const uint64_t gdbPort = flags.u64("--gdb", kNoGdb, 0, UINT16_MAX);
    // Inject a capability bounds fault this many measured cycles in —
    // the debugger walkthrough's break target.
    config.faultProbeAtCycle =
        flags.u64("--fault-probe", config.faultProbeAtCycle);
    const std::vector<std::string> args = flags.done(1);
    if (!args.empty()) {
        config.simSeconds = flags.parse<double>(args[0], "SECONDS");
    }

    // With --gdb, the first scheduler pause accepts one client and
    // serves it in external-run mode: resume packets hand control
    // back to the scheduler, and stops recorded by the RunControl
    // hooks (breakpoints, watchpoints, the --fault-probe capability
    // fault) are delivered at the next pause.
    std::unique_ptr<debug::GdbServer> gdbServer;
    std::unique_ptr<debug::GdbSocket> gdbSocket;
    int gdbFd = -1;
    if (gdbPort != kNoGdb) {
        config.debugPoll = [&](sim::Machine &machine,
                               rtos::Kernel &kernel) {
            if (gdbServer == nullptr) {
                gdbFd = debug::GdbSocket::acceptTcp(
                    static_cast<uint16_t>(gdbPort));
                if (gdbFd < 0) {
                    std::fprintf(stderr,
                                 "e2e_iot: --gdb: accept failed\n");
                    std::exit(2);
                }
                gdbServer = std::make_unique<debug::GdbServer>(
                    machine, &kernel);
                gdbServer->setExternalRun(true);
                gdbSocket =
                    std::make_unique<debug::GdbSocket>(*gdbServer);
                gdbSocket->attach(gdbFd);
                return;
            }
            gdbSocket->pump();
        };
    }

    std::printf("End-to-end IoT application (paper §7.2.3)\n");
    std::printf("20 MHz CHERIoT-Ibex, %0.0f simulated seconds, hardware "
                "revocation\n\n",
                config.simSeconds);

    const IotAppResult result = runIotApp(config);

    if (gdbSocket != nullptr) {
        gdbSocket->finishSession(result.ok ? 0 : 1);
    }
    if (gdbFd >= 0) {
        ::close(gdbFd);
    }

    std::printf("CPU load:                %6.2f%%   (paper: 17.5%%)\n",
                result.cpuLoad * 100.0);
    std::printf("idle share:              %6.2f%%   (paper: 82.5%%)\n",
                (1.0 - result.cpuLoad) * 100.0);
    std::printf("TLS handshake done:      %s\n",
                result.handshakeCompleted ? "yes" : "NO");
    std::printf("packets processed:       %llu (%llu bytes)\n",
                static_cast<unsigned long long>(result.packetsProcessed),
                static_cast<unsigned long long>(result.bytesReceived));
    std::printf("JS ticks (10 ms each):   %llu\n",
                static_cast<unsigned long long>(result.jsTicks));
    std::printf("JS objects allocated:    %llu (%llu GC passes)\n",
                static_cast<unsigned long long>(result.jsObjects),
                static_cast<unsigned long long>(result.gcPasses));
    std::printf("heap allocations total:  %llu\n",
                static_cast<unsigned long long>(result.heapAllocations));
    std::printf("revocation sweeps:       %llu\n",
                static_cast<unsigned long long>(result.revocationSweeps));
    std::printf("cross-compartment calls: %llu\n",
                static_cast<unsigned long long>(
                    result.crossCompartmentCalls));
    std::printf("NIC RX packets:          %llu (drops=%llu errors=%llu)\n",
                static_cast<unsigned long long>(result.nicRxPackets),
                static_cast<unsigned long long>(result.nicRxDrops),
                static_cast<unsigned long long>(result.nicRxErrors));
    std::printf("NIC TX packets (acks):   %llu (sent=%llu)\n",
                static_cast<unsigned long long>(result.nicTxPackets),
                static_cast<unsigned long long>(result.netAcksSent));
    std::printf("firewall parse drops:    %llu\n",
                static_cast<unsigned long long>(result.netParseDrops));
    std::printf("final LED state:         0x%02x\n", result.finalLedState);
    std::printf("run %s\n", result.ok ? "OK" : "FAILED");
    return result.ok ? 0 : 1;
}
