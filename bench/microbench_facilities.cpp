/**
 * @file
 * Simulated-cycle costs of the key facilities: a cross-compartment
 * call with and without the stack high-water mark, a malloc/free pair
 * under each temporal mode at 64 B and 1 KiB, and one software
 * revocation sweep of the heap. Every figure is deterministic (cycles
 * on the Ibex model, not host time); host-time costs of the same
 * layers are perfbench probes (`cap.*`, `rtos.call_ns`,
 * `alloc.malloc_free_ns`, `sim.run_ns_per_instr.*`).
 *
 * Exits 1 unless the high-water mark makes the call cheaper (§5.2.1:
 * the switcher then zeroes only the stack the callee used).
 */

#include "alloc/heap_allocator.h"
#include "cap/capability.h"
#include "rtos/kernel.h"
#include "sim/machine.h"

#include <cstdio>

using namespace cheriot;

namespace
{

constexpr uint64_t kCalls = 200;
constexpr uint64_t kPairs = 200;

sim::MachineConfig
benchMachineConfig(bool hwm)
{
    sim::MachineConfig config;
    config.core = sim::CoreConfig::ibex();
    config.core.hwmEnabled = hwm;
    config.sramSize = 272u << 10;
    config.heapOffset = 16u << 10;
    config.heapSize = 256u << 10;
    return config;
}

/** Cycles per call of an export that touches 64 bytes of stack. */
double
callCycles(bool hwm)
{
    sim::Machine machine(benchMachineConfig(hwm));
    rtos::Kernel kernel(machine);
    rtos::Compartment &comp = kernel.createCompartment("callee");
    rtos::Thread &thread = kernel.createThread("bench", 1, 1024);
    kernel.activate(thread);
    const uint32_t index = comp.addExport(
        {"noop", [](rtos::CompartmentContext &ctx, rtos::ArgVec &) {
             const cap::Capability frame = ctx.stackAlloc(64);
             ctx.mem.storeWord(frame, frame.base(), 1);
             return rtos::CallResult::ofInt(0);
         },
         false});
    const auto import = kernel.importOf(comp, index);

    const uint64_t startCycles = machine.cycles();
    for (uint64_t i = 0; i < kCalls; ++i) {
        if (!kernel.call(thread, import, {}).ok()) {
            std::fprintf(stderr, "microbench: call %llu failed\n",
                         static_cast<unsigned long long>(i));
            return -1;
        }
    }
    return static_cast<double>(machine.cycles() - startCycles) / kCalls;
}

/** Cycles per malloc/free pair of @p size bytes under @p mode. */
double
mallocFreeCycles(alloc::TemporalMode mode, uint32_t size)
{
    sim::Machine machine(benchMachineConfig(true));
    rtos::Kernel kernel(machine);
    kernel.initHeap(mode);
    rtos::Thread &thread = kernel.createThread("bench", 1, 1024);
    kernel.activate(thread);

    const uint64_t startCycles = machine.cycles();
    for (uint64_t i = 0; i < kPairs; ++i) {
        const cap::Capability ptr = kernel.malloc(thread, size);
        if (!ptr.tag() || kernel.free(thread, ptr) !=
                              alloc::HeapAllocator::FreeResult::Ok) {
            std::fprintf(stderr, "microbench: %s malloc/free %u failed\n",
                         alloc::temporalModeName(mode), size);
            return -1;
        }
    }
    return static_cast<double>(machine.cycles() - startCycles) / kPairs;
}

/** Cycles of one software revocation sweep over the 256 KiB heap. */
uint64_t
softwareSweepCycles()
{
    sim::Machine machine(benchMachineConfig(true));
    revoker::SoftwareRevoker revoker(machine, cap::Capability::memoryRoot(),
                                     machine.heapBase(), 256u << 10);
    const uint64_t startCycles = machine.cycles();
    revoker.requestSweep();
    return machine.cycles() - startCycles;
}

} // namespace

int
main()
{
    std::printf("Simulated cycles (Ibex)\n");
    const double withHwm = callCycles(true);
    const double withoutHwm = callCycles(false);
    std::printf("  cross-compartment call, HWM on   %8.1f cycles/call\n",
                withHwm);
    std::printf("  cross-compartment call, HWM off  %8.1f cycles/call\n",
                withoutHwm);

    bool ok = withHwm > 0 && withoutHwm > 0;
    for (const alloc::TemporalMode mode :
         {alloc::TemporalMode::None, alloc::TemporalMode::MetadataOnly,
          alloc::TemporalMode::SoftwareRevocation,
          alloc::TemporalMode::HardwareRevocation}) {
        for (const uint32_t size : {64u, 1024u}) {
            const double cycles = mallocFreeCycles(mode, size);
            ok = ok && cycles > 0;
            std::printf("  malloc/free %4u B, %-12s %8.1f cycles/pair\n",
                        size, alloc::temporalModeName(mode), cycles);
        }
    }
    std::printf("  software sweep, 256 KiB heap     %8llu cycles\n",
                static_cast<unsigned long long>(softwareSweepCycles()));

    if (!ok) {
        return 1;
    }
    if (withHwm >= withoutHwm) {
        std::printf("FAIL: the high-water mark does not make the call "
                    "cheaper (§5.2.1)\n");
        return 1;
    }
    std::printf("OK: the high-water mark saves %.1f cycles per call "
                "(§5.2.1)\n",
                withoutHwm - withHwm);
    return 0;
}
