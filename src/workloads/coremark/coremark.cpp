#include "workloads/coremark/coremark.h"

#include "util/log.h"

#include <algorithm>

namespace cheriot::workloads
{

using namespace cheriot::isa;

CoreMarkBuilder::CoreMarkBuilder(const CoreMarkConfig &config)
    : config_(config),
      ptr_{config.core.cheriEnabled, config.emulateCompilerBugs},
      asm_(kProgramBase)
{
    listBenchLabel_ = asm_.newLabel();
    matrixBenchLabel_ = asm_.newLabel();
    stateBenchLabel_ = asm_.newLabel();
}

void
CoreMarkBuilder::emitSetup()
{
    auto &a = asm_;
    if (ptr_.cheri) {
        // Keep the memory root (arrives in a0 on reset) in sp for the
        // final console access, and derive the bounded arena pointer.
        a.cmove(Sp, A0);
        a.li(T0, static_cast<int32_t>(kArenaBase));
        a.csetaddr(S0, A0, T0);
        a.li(T1, static_cast<int32_t>(kArenaSize));
        a.csetbounds(S0, S0, T1);
    } else {
        a.li(S0, static_cast<int32_t>(kArenaBase));
    }
    a.li(Tp, 0); // checksum
}

void
CoreMarkBuilder::emitOuterLoop()
{
    auto &a = asm_;
    a.li(S1, static_cast<int32_t>(config_.iterations));
    const auto outer = a.here();
    for (uint32_t pass = 0; pass < kListPasses; ++pass) {
        a.jal(Ra, listBenchLabel_);
    }
    a.jal(Ra, matrixBenchLabel_);
    a.jal(Ra, stateBenchLabel_);
    a.addi(S1, S1, -1);
    a.bnez(S1, outer);
}

void
CoreMarkBuilder::emitFinish()
{
    auto &a = asm_;
    // Report the checksum through the console exit register.
    a.li(T0, static_cast<int32_t>(mem::kConsoleMmioBase));
    if (ptr_.cheri) {
        a.csetaddr(A2, Sp, T0);
    } else {
        a.mv(A2, T0);
    }
    a.sw(Tp, A2, 4);
    a.ebreak(); // Unreachable: the exit store halts the machine.
}

std::vector<uint32_t>
CoreMarkBuilder::build()
{
    emitSetup();
    emitListInit();
    emitMatrixInit();
    emitStateInit();
    emitOuterLoop();
    emitFinish();
    // Subroutines live after the main flow.
    emitListBench();
    emitMatrixBench();
    emitStateBench();
    return asm_.finish();
}

CoreMarkResult
runCoreMark(const CoreMarkConfig &config, const std::string &name)
{
    sim::MachineConfig machineConfig;
    machineConfig.core = config.core;
    machineConfig.sramSize = 256u << 10;
    machineConfig.heapOffset = 192u << 10;
    machineConfig.heapSize = 32u << 10;
    machineConfig.injector = config.injector;

    sim::Machine machine(machineConfig);
    CoreMarkBuilder builder(config);
    machine.loadProgram(builder.build(), builder.entry());
    machine.resetCpu(builder.entry());
    if (config.resumeImage != nullptr &&
        !machine.restoreImage(*config.resumeImage)) {
        fatal("coremark: resume image rejected by %s", name.c_str());
    }
    if (config.preRunSnapshotOut != nullptr) {
        *config.preRunSnapshotOut = machine.saveImage();
    }

    // The budget is absolute over the whole (possibly resumed)
    // workload, so a resumed run picks up exactly the remaining slice.
    const uint64_t budget = config.maxInstructions != 0
                                ? config.maxInstructions
                                : 2'000'000'000ull;
    sim::HaltReason reason = sim::HaltReason::InstrLimit;
    while (!machine.halted() && machine.instructions() < budget) {
        uint64_t slice = budget - machine.instructions();
        if (config.checkpointEveryInstructions != 0) {
            slice = std::min(slice, config.checkpointEveryInstructions);
        }
        reason = machine.run(slice).reason;
        if (config.checkpoints != nullptr && !machine.halted()) {
            config.checkpoints->store(machine.saveImage());
        }
    }
    if (machine.halted()) {
        reason = machine.haltReason();
    }

    CoreMarkResult result;
    result.configName = name;
    result.cycles = machine.cycles();
    result.instructions = machine.instructions();
    result.checksum = machine.console().exitCode();
    result.valid = reason == sim::HaltReason::ConsoleExit;
    result.haltReason = reason;
    result.trapsTaken = machine.trapCount();
    result.busRetries = machine.bus().retries.value();
    result.busDelayCycles = machine.bus().delayCycles.value();
    result.finalDigest = machine.stateDigest();
    if (result.valid && result.cycles > 0) {
        result.score = static_cast<double>(config.iterations) /
                       (static_cast<double>(result.cycles) / 1e6);
    }
    return result;
}

CoreMarkTableRow
runCoreMarkRow(sim::CoreConfig core, uint32_t iterations)
{
    CoreMarkTableRow row;
    row.coreName = core.name;

    CoreMarkConfig config;
    config.iterations = iterations;

    config.core = core;
    config.core.cheriEnabled = false;
    config.core.loadFilterEnabled = false;
    row.baseline = runCoreMark(config, core.name + "/rv32e");

    config.core = core;
    config.core.cheriEnabled = true;
    config.core.loadFilterEnabled = false;
    row.withCaps = runCoreMark(config, core.name + "/caps");

    config.core = core;
    config.core.cheriEnabled = true;
    config.core.loadFilterEnabled = true;
    row.withFilter = runCoreMark(config, core.name + "/caps+filter");

    if (row.baseline.checksum != row.withCaps.checksum ||
        row.baseline.checksum != row.withFilter.checksum) {
        warn("coremark: checksum mismatch across configurations "
             "(%08x / %08x / %08x)",
             row.baseline.checksum, row.withCaps.checksum,
             row.withFilter.checksum);
    }
    return row;
}

} // namespace cheriot::workloads
