/**
 * Lockstep divergence checking over the paper's workloads.
 *
 * Two modes, both exiting non-zero on any divergence:
 *
 *  - CoreMark: two machines execute the same guest program in
 *    instruction lockstep with per-step architectural compare and
 *    periodic memory-digest checks. Runs the identical-config pairing
 *    and, with --cross, an Ibex-vs-Flute pairing (same architectural
 *    program, different timing models — cycle counts are excluded
 *    from the compare).
 *  - IoT: the workload runs through the RTOS host model rather than
 *    machine.step(), so two identically-configured runs are compared
 *    by their whole-machine state digests and observable outputs.
 *
 * Usage:
 *   lockstep [--iterations N] [--sim-seconds F] [--cross] [--verbose]
 */

#include "flags.h"
#include "snapshot/lockstep.h"
#include "util/log.h"
#include "workloads/coremark/coremark.h"
#include "workloads/iot/iot_app.h"

#include <cinttypes>
#include <cstdio>
#include <memory>

using namespace cheriot;

namespace
{

void
printTrace(const char *label, const std::vector<std::string> &lines)
{
    std::printf("  %s:\n", label);
    for (const std::string &line : lines) {
        std::printf("    %s\n", line.c_str());
    }
}

/** Build one CoreMark machine ready to run. */
std::unique_ptr<sim::Machine>
makeCoreMarkMachine(const workloads::CoreMarkConfig &config)
{
    sim::MachineConfig machineConfig;
    machineConfig.core = config.core;
    machineConfig.sramSize = 256u << 10;
    machineConfig.heapOffset = 192u << 10;
    machineConfig.heapSize = 32u << 10;
    auto machine = std::make_unique<sim::Machine>(machineConfig);
    workloads::CoreMarkBuilder builder(config);
    machine->loadProgram(builder.build(), builder.entry());
    machine->resetCpu(builder.entry());
    return machine;
}

int
runCoreMarkLockstep(uint32_t iterations, bool cross)
{
    workloads::CoreMarkConfig configA;
    configA.iterations = iterations;
    workloads::CoreMarkConfig configB = configA;
    if (cross) {
        configA.core = sim::CoreConfig::ibex();
        configB.core = sim::CoreConfig::flute();
        configA.core.cheriEnabled = configB.core.cheriEnabled = true;
        configA.core.loadFilterEnabled =
            configB.core.loadFilterEnabled = true;
    }

    // Machines are declared before the runner so its tracers detach
    // before the machines are destroyed.
    const std::unique_ptr<sim::Machine> a = makeCoreMarkMachine(configA);
    const std::unique_ptr<sim::Machine> b = makeCoreMarkMachine(configB);

    snapshot::LockstepRunner runner(*a, *b);
    const snapshot::LockstepReport &report =
        runner.run(2'000'000'000ull);

    std::printf("coremark lockstep (%s): %" PRIu64 " paired steps, %s\n",
                cross ? "ibex vs flute" : "identical configs",
                runner.steps(),
                report.diverged
                    ? "DIVERGED"
                    : (report.completed ? "completed, zero divergences"
                                        : "instruction limit"));
    int status = 0;
    if (report.diverged) {
        std::printf("  first divergence at instruction %" PRIu64
                    ": %s\n",
                    report.divergenceStep, report.detail.c_str());
        printTrace("machine A trace", report.traceA);
        printTrace("machine B trace", report.traceB);
        status = 1;
    } else if (!report.completed) {
        status = 1;
    }
    return status;
}

int
runIotLockstep(double simSeconds)
{
    workloads::IotAppConfig config;
    config.simSeconds = simSeconds;

    const workloads::IotAppResult a = runIotApp(config);
    const workloads::IotAppResult b = runIotApp(config);

    const bool match = a.finalDigest == b.finalDigest &&
                       a.packetsProcessed == b.packetsProcessed &&
                       a.jsTicks == b.jsTicks &&
                       a.finalLedState == b.finalLedState &&
                       a.cpuLoad == b.cpuLoad;
    std::printf("iot lockstep (identical configs): digests %08x / %08x, "
                "%s\n",
                a.finalDigest, b.finalDigest,
                match ? "zero divergences" : "DIVERGED");
    if (!match) {
        std::printf("  packets %" PRIu64 "/%" PRIu64 ", ticks %" PRIu64
                    "/%" PRIu64 ", led %08x/%08x\n",
                    a.packetsProcessed, b.packetsProcessed, a.jsTicks,
                    b.jsTicks, a.finalLedState, b.finalLedState);
    }
    return match ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags("lockstep",
                       "[--iterations N] [--sim-seconds F] [--cross] "
                       "[--verbose]",
                       argc, argv);
    const uint32_t iterations = static_cast<uint32_t>(
        flags.u64("--iterations", 20, 0, UINT32_MAX));
    const double simSeconds = flags.real("--sim-seconds", 0.25);
    const bool cross = flags.has("--cross");
    const bool verbose = flags.has("--verbose");
    flags.done();
    setLogLevel(verbose ? LogLevel::Info : LogLevel::Warn);

    int status = runCoreMarkLockstep(iterations, false);
    if (cross) {
        status |= runCoreMarkLockstep(iterations, true);
    }
    status |= runIotLockstep(simSeconds);
    return status;
}
