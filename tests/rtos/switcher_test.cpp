/**
 * @file
 * Cross-compartment call mechanics (paper §2.6, §5.2): stack
 * chopping, zeroing (with and without the high-water mark), interrupt
 * posture on entries, fault unwinding, and the loader's capability
 * derivations.
 */

#include "rtos/kernel.h"
#include "sim/machine.h"

#include <gtest/gtest.h>

namespace cheriot::rtos
{
namespace
{

using cap::Capability;
using sim::Machine;
using sim::MachineConfig;
using sim::TrapCause;

MachineConfig
config(bool hwm = true)
{
    MachineConfig c;
    c.core = sim::CoreConfig::ibex();
    c.core.hwmEnabled = hwm;
    c.sramSize = 256u << 10;
    c.heapOffset = 128u << 10;
    c.heapSize = 64u << 10;
    return c;
}

TEST(Switcher, CalleeSeesChoppedStack)
{
    Machine machine(config());
    Kernel kernel(machine);
    Compartment &callee = kernel.createCompartment("callee");
    Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);

    // Both exports are registered before the first call: adding an
    // export from inside a running one would reallocate the table that
    // holds the running closure.
    const uint32_t nested = callee.addExport(
        {"nested",
         [&](CompartmentContext &inner, ArgVec &) {
             EXPECT_EQ(inner.stackCap.top(), thread.stackTop() - 256);
             return CallResult::ofInt(1);
         },
         false});
    const uint32_t index = callee.addExport(
        {"probe",
         [&](CompartmentContext &ctx, ArgVec &) {
             // The callee's stack covers [stackBase, callerSp) and
             // nothing more.
             EXPECT_EQ(ctx.stackCap.base(), thread.stackBase());
             EXPECT_EQ(ctx.stackCap.top(), thread.stackTop());
             EXPECT_TRUE(ctx.stackCap.perms().has(cap::PermStoreLocal));
             EXPECT_TRUE(ctx.stackCap.isLocal());

             // A nested call sees a smaller stack.
             const Capability frame = ctx.stackAlloc(256);
             EXPECT_TRUE(frame.tag());
             return ctx.kernel.call(
                 ctx.thread, ctx.kernel.importOf(callee, nested), {});
         },
         false});
    const CallResult result =
        kernel.call(thread, kernel.importOf(callee, index), {});
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result.value.address(), 1u);
    EXPECT_EQ(thread.sp(), thread.stackTop()) << "sp restored";
}

TEST(Switcher, StackIsZeroedBetweenCompartments)
{
    Machine machine(config());
    Kernel kernel(machine);
    Compartment &writer = kernel.createCompartment("writer");
    Compartment &reader = kernel.createCompartment("reader");
    Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);

    // Writer leaves a secret deep in the stack.
    uint32_t secretAddr = 0;
    const uint32_t writeIdx = writer.addExport(
        {"write",
         [&](CompartmentContext &ctx, ArgVec &) {
             const Capability frame = ctx.stackAlloc(64);
             ctx.mem.storeWord(frame, frame.base() + 8, 0xdeadbeef);
             secretAddr = frame.base() + 8;
             return CallResult::ofInt(0);
         },
         false});
    // Reader scans the same region afterwards.
    const uint32_t readIdx = reader.addExport(
        {"read",
         [&](CompartmentContext &ctx, ArgVec &) {
             const Capability frame = ctx.stackAlloc(64);
             uint32_t leaked = 0;
             for (uint32_t off = 0; off < 64; off += 4) {
                 leaked |= ctx.mem.loadWord(frame, frame.base() + off);
             }
             return CallResult::ofInt(leaked);
         },
         false});

    ASSERT_TRUE(
        kernel.call(thread, kernel.importOf(writer, writeIdx), {}).ok());
    // The secret is gone from raw memory already (zeroed on return).
    EXPECT_EQ(machine.memory().sram().read32(secretAddr), 0u);

    const CallResult read =
        kernel.call(thread, kernel.importOf(reader, readIdx), {});
    EXPECT_EQ(read.value.address(), 0u) << "no cross-compartment leak";
}

TEST(Switcher, HighWaterMarkReducesZeroingCost)
{
    // Same call pattern with and without the HWM: the HWM
    // configuration zeroes far fewer bytes (§5.2.1).
    auto measure = [](bool hwm) {
        Machine machine(config(hwm));
        Kernel kernel(machine);
        Compartment &comp = kernel.createCompartment("c");
        Thread &thread = kernel.createThread("main", 1, 8192);
        kernel.activate(thread);
        const uint32_t idx = comp.addExport(
            {"touch",
             [](CompartmentContext &ctx, ArgVec &) {
                 // Touch only 64 bytes of an 8 KiB stack.
                 const Capability frame = ctx.stackAlloc(64);
                 ctx.mem.storeWord(frame, frame.base(), 1);
                 return CallResult::ofInt(0);
             },
             false});
        for (int i = 0; i < 10; ++i) {
            EXPECT_TRUE(
                kernel.call(thread, kernel.importOf(comp, idx), {}).ok());
        }
        return kernel.switcher().bytesZeroed.value();
    };

    const uint64_t withHwm = measure(true);
    const uint64_t withoutHwm = measure(false);
    EXPECT_LT(withHwm, withoutHwm / 10)
        << "HWM must avoid rezeroing the untouched stack";
}

TEST(Switcher, InterruptsDisabledEntries)
{
    Machine machine(config());
    Kernel kernel(machine);
    Compartment &comp = kernel.createCompartment("driver");
    Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);
    machine.setInterruptsEnabled(true);

    bool observedDisabled = false;
    const uint32_t idx = comp.addExport(
        {"critical",
         [&](CompartmentContext &ctx, ArgVec &) {
             observedDisabled = !ctx.mem.machine().interruptsEnabled();
             return CallResult::ofInt(0);
         },
         /*interruptsDisabled=*/true});
    ASSERT_TRUE(kernel.call(thread, kernel.importOf(comp, idx), {}).ok());
    EXPECT_TRUE(observedDisabled);
    EXPECT_TRUE(machine.interruptsEnabled()) << "posture restored";
}

TEST(Switcher, CalleeFaultIsUnwoundNotFatal)
{
    Machine machine(config());
    Kernel kernel(machine);
    Compartment &buggy = kernel.createCompartment("buggy");
    Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);

    const uint32_t idx = buggy.addExport(
        {"crash",
         [](CompartmentContext &ctx, ArgVec &) {
             uint32_t value = 0;
             const TrapCause cause = ctx.mem.tryLoadWord(
                 Capability(), 0x1234, &value);
             return CallResult::faulted(cause);
         },
         false});
    const CallResult result =
        kernel.call(thread, kernel.importOf(buggy, idx), {});
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.fault, TrapCause::CheriTagViolation);
    EXPECT_EQ(kernel.switcher().calleeFaults.value(), 1u);
    EXPECT_EQ(thread.sp(), thread.stackTop()) << "stack unwound";

    // The system is still alive: another call succeeds.
    const uint32_t okIdx = buggy.addExport(
        {"fine", [](CompartmentContext &, ArgVec &) {
             return CallResult::ofInt(7);
         },
         false});
    EXPECT_EQ(kernel.call(thread, kernel.importOf(buggy, okIdx), {})
                  .value.address(),
              7u);
}

TEST(Switcher, CrossCompartmentCallHasBoundedCost)
{
    Machine machine(config());
    Kernel kernel(machine);
    Compartment &comp = kernel.createCompartment("c");
    Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);
    const uint32_t idx = comp.addExport(
        {"empty", [](CompartmentContext &, ArgVec &) {
             return CallResult::ofInt(0);
         },
         false});

    // Warm-up call zeroes the virgin stack.
    kernel.call(thread, kernel.importOf(comp, idx), {});
    const uint64_t before = machine.cycles();
    kernel.call(thread, kernel.importOf(comp, idx), {});
    const uint64_t cost = machine.cycles() - before;
    // The paper's primitives are a few hundred instructions: the
    // round trip should be O(hundreds) of cycles, not thousands.
    EXPECT_GT(cost, 100u);
    EXPECT_LT(cost, 2000u);
}

TEST(Loader, CapabilityDerivationRules)
{
    Machine machine(config());
    Kernel kernel(machine);
    Loader &loader = kernel.loader();

    const uint32_t region = loader.allocRegion(256);
    const Capability data = loader.dataCap(region, 256);
    EXPECT_TRUE(data.tag());
    EXPECT_EQ(data.base(), region);
    EXPECT_FALSE(data.perms().has(cap::PermStoreLocal));
    EXPECT_TRUE(data.perms().has(cap::PermGlobal));

    const Capability stack = loader.dataCap(region, 256, true, false);
    EXPECT_TRUE(stack.perms().has(cap::PermStoreLocal));
    EXPECT_TRUE(stack.isLocal());

    const Capability code = loader.codeCap(region, 256);
    EXPECT_TRUE(code.perms().has(cap::PermExecute));
    EXPECT_FALSE(code.perms().has(cap::PermStore));
    EXPECT_FALSE(code.perms().has(cap::PermSystemRegs));

    const Capability mmio =
        loader.mmioCap(mem::kConsoleMmioBase, mem::kConsoleMmioSize);
    EXPECT_FALSE(mmio.perms().has(cap::PermMemCap));

    // Regions never overlap.
    const uint32_t second = loader.allocRegion(64);
    EXPECT_GE(second, region + 256);

    // After finalisation, derivation is impossible.
    loader.finalise();
    EXPECT_DEATH((void)loader.dataCap(region, 16), "roots were erased");
}

TEST(Scheduler, PeriodicTasksAndCpuLoad)
{
    Machine machine(config());
    Kernel kernel(machine);
    Scheduler &scheduler = kernel.scheduler();

    int ticks = 0;
    scheduler.addPeriodic("tick", 10000, 1, [&] {
        ticks++;
        machine.advance(1000, 500); // 10% duty cycle of busy work
    });
    const double load = scheduler.runFor(200000);
    EXPECT_GE(ticks, 18);
    EXPECT_LE(ticks, 21);
    EXPECT_GT(load, 0.05);
    EXPECT_LT(load, 0.35);
}

TEST(Scheduler, BlockUntilContextSwitches)
{
    Machine machine(config());
    Kernel kernel(machine);
    Scheduler &scheduler = kernel.scheduler();

    int polls = 0;
    const uint64_t switchesBefore = scheduler.contextSwitches.value();
    scheduler.blockUntil([&] { return ++polls >= 5; }, 128);
    EXPECT_EQ(polls, 5);
    EXPECT_EQ(scheduler.contextSwitches.value() - switchesBefore, 8u);
}

} // namespace
} // namespace cheriot::rtos
