/**
 * @file
 * End-to-end tests of the CPU model: guest programs assembled with
 * the builder API, executed on both cores, exercising arithmetic,
 * control flow, memory (with capability checks), sentries and traps.
 */

#include "isa/assembler.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

namespace cheriot::sim
{
namespace
{

using cap::Capability;
using namespace cheriot::isa;

constexpr uint32_t kEntry = mem::kSramBase + 0x1000;

MachineConfig
smallConfig(CoreConfig core)
{
    MachineConfig config;
    config.core = core;
    config.sramSize = 256u << 10;
    config.heapOffset = 128u << 10;
    config.heapSize = 64u << 10;
    return config;
}

/** Run a program to EBREAK and return the machine for inspection. */
std::unique_ptr<Machine>
runProgram(const std::function<void(Assembler &)> &body,
           CoreConfig core = CoreConfig::ibex(),
           uint64_t maxInstructions = 1u << 20)
{
    auto machine = std::make_unique<Machine>(smallConfig(core));
    Assembler assembler(kEntry);
    body(assembler);
    machine->loadProgram(assembler.finish(), kEntry);
    machine->resetCpu(kEntry);
    machine->run(maxInstructions);
    return machine;
}

TEST(MachineExec, ArithmeticAndLogic)
{
    auto machine = runProgram([](Assembler &a) {
        a.li(A2, 21);
        a.li(A3, 2);
        a.mul(A2, A2, A3);   // 42
        a.addi(A2, A2, 58);  // 100
        a.li(A4, 7);
        a.div(A5, A2, A4);   // 14
        a.rem(A4, A2, A4);   // 2
        a.slli(A3, A3, 4);   // 32
        a.xor_(A3, A3, A5);  // 32 ^ 14 = 46
        a.ebreak();
    });
    EXPECT_EQ(machine->haltReason(), HaltReason::Breakpoint);
    EXPECT_EQ(machine->readRegInt(A2), 100u);
    EXPECT_EQ(machine->readRegInt(A5), 14u);
    EXPECT_EQ(machine->readRegInt(A4), 2u);
    EXPECT_EQ(machine->readRegInt(A3), 46u);
}

TEST(MachineExec, LoopsAndBranches)
{
    // Sum 1..100 = 5050.
    auto machine = runProgram([](Assembler &a) {
        a.li(A0, 0);
        a.li(A1, 1);
        a.li(A2, 100);
        auto loop = a.here();
        a.add(A0, A0, A1);
        a.addi(A1, A1, 1);
        a.bge(A2, A1, loop);
        a.ebreak();
    });
    EXPECT_EQ(machine->readRegInt(A0), 5050u);
}

TEST(MachineExec, MemoryThroughCapabilities)
{
    // a0 arrives holding the memory root; derive a buffer cap and use
    // word/halfword/byte accesses through it.
    auto machine = runProgram([](Assembler &a) {
        const uint32_t buffer = kEntry + 0x2000;
        a.li(T0, static_cast<int32_t>(buffer));
        a.csetaddr(A2, A0, T0); // memory root -> buffer address
        a.li(T1, 64);
        a.csetbounds(A2, A2, T1);
        a.li(T2, 0x1234);
        a.sw(T2, A2, 0);
        a.sh(T2, A2, 8);
        a.sb(T2, A2, 12);
        a.lw(A3, A2, 0);
        a.lhu(A4, A2, 8);
        a.lbu(A5, A2, 12);
        a.ebreak();
    });
    EXPECT_EQ(machine->haltReason(), HaltReason::Breakpoint);
    EXPECT_EQ(machine->readRegInt(A3), 0x1234u);
    EXPECT_EQ(machine->readRegInt(A4), 0x1234u);
    EXPECT_EQ(machine->readRegInt(A5), 0x34u);
}

TEST(MachineExec, CapabilityLoadStoreRoundTripsTag)
{
    auto machine = runProgram([](Assembler &a) {
        const uint32_t buffer = kEntry + 0x2000;
        a.li(T0, static_cast<int32_t>(buffer));
        a.csetaddr(A2, A0, T0);
        a.csc(A0, A2, 0);      // store the root capability
        a.clc(A3, A2, 0);      // load it back
        a.cgettag(A4, A3);     // tag must survive
        a.sw(Zero, A2, 0);     // clobber half the granule
        a.clc(A5, A2, 0);      // reload: tag must be gone
        a.cgettag(A5, A5);
        a.ebreak();
    });
    EXPECT_EQ(machine->readRegInt(A4), 1u);
    EXPECT_EQ(machine->readRegInt(A5), 0u);
}

TEST(MachineExec, OutOfBoundsLoadTraps)
{
    auto machine = runProgram([](Assembler &a) {
        const uint32_t buffer = kEntry + 0x2000;
        a.li(T0, static_cast<int32_t>(buffer));
        a.csetaddr(A2, A0, T0);
        a.li(T1, 16);
        a.csetbounds(A2, A2, T1);
        a.lw(A3, A2, 16); // one word past the end
        a.ebreak();
    });
    // No trap handler installed: the machine double-faults.
    EXPECT_EQ(machine->haltReason(), HaltReason::DoubleTrap);
    EXPECT_EQ(machine->lastTrap(), TrapCause::CheriBoundsViolation);
}

TEST(MachineExec, StorePermissionViolationTraps)
{
    auto machine = runProgram([](Assembler &a) {
        const uint32_t buffer = kEntry + 0x2000;
        a.li(T0, static_cast<int32_t>(buffer));
        a.csetaddr(A2, A0, T0);
        a.li(T1, static_cast<int32_t>(
                     ~(cap::PermStore | cap::PermStoreLocal)));
        a.candperm(A2, A2, T1); // read-only view
        a.sw(Zero, A2, 0);
        a.ebreak();
    });
    EXPECT_EQ(machine->haltReason(), HaltReason::DoubleTrap);
    EXPECT_EQ(machine->lastTrap(), TrapCause::CheriPermViolation);
}

TEST(MachineExec, UntaggedDereferenceTraps)
{
    auto machine = runProgram([](Assembler &a) {
        a.ccleartag(A2, A0);
        a.lw(A3, A2, 0);
        a.ebreak();
    });
    EXPECT_EQ(machine->lastTrap(), TrapCause::CheriTagViolation);
}

TEST(MachineExec, CapabilityIntrospection)
{
    auto machine = runProgram([](Assembler &a) {
        const uint32_t buffer = kEntry + 0x3000;
        a.li(T0, static_cast<int32_t>(buffer));
        a.csetaddr(A2, A0, T0);
        a.li(T1, 100);
        a.csetbounds(A2, A2, T1);
        a.cgetbase(A3, A2);
        a.cgetlen(A4, A2);
        a.cgettop(A5, A2);
        a.ebreak();
    });
    const uint32_t buffer = kEntry + 0x3000;
    EXPECT_EQ(machine->readRegInt(A3), buffer);
    EXPECT_EQ(machine->readRegInt(A4), 100u);
    EXPECT_EQ(machine->readRegInt(A5), buffer + 100);
}

TEST(MachineExec, SentryJumpTogglesInterruptPosture)
{
    auto machine = runProgram([](Assembler &a) {
        // Build a disable-interrupts sentry over `target` and jump
        // through it; the link register restores posture on return.
        auto around = a.newLabel();
        a.j(around);
        auto target = a.here();
        a.csrrs(A5, kCsrMstatus, Zero); // read mstatus inside callee
        a.ret();
        a.bind(around);
        a.auipcc(A2, 0);
        const int32_t off =
            static_cast<int32_t>(kEntry + 4) - static_cast<int32_t>(a.pc());
        (void)target;
        a.cincaddrimm(A2, A2, off + 4); // address of `target`
        a.csealentry(A2, A2, 2);        // disable-interrupts sentry
        // Enable interrupts first (mstatus.MIE is bit 3).
        a.li(T0, 8);
        a.csrrs(Zero, kCsrMstatus, T0);
        a.jalr(Ra, A2);
        a.csrrs(A4, kCsrMstatus, Zero); // posture after return
        a.ebreak();
    });
    EXPECT_EQ(machine->haltReason(), HaltReason::Breakpoint);
    // Inside the sentry call interrupts were disabled...
    EXPECT_EQ(machine->readRegInt(A5) & 8u, 0u);
    // ...and restored by the return sentry.
    EXPECT_EQ(machine->readRegInt(A4) & 8u, 8u);
}

TEST(MachineExec, SealedCapabilityCannotBeDereferenced)
{
    auto machine = runProgram([](Assembler &a) {
        // Seal the memory root with a data otype via the sealing
        // root in a1, then try to load through it.
        a.cincaddrimm(A2, A1, cap::kOtypeAllocator);
        a.cseal(A3, A0, A2);
        a.lw(A4, A3, 0);
        a.ebreak();
    });
    EXPECT_EQ(machine->lastTrap(), TrapCause::CheriSealViolation);
}

TEST(MachineExec, TrapHandlerAndMret)
{
    auto machine = runProgram([](Assembler &a) {
        // Install a trap handler that records mcause and skips the
        // faulting instruction.
        auto around = a.newLabel();
        a.j(around);
        auto handler = a.here();
        a.csrrs(A5, kCsrMcause, Zero);
        a.cspecialrw(A4, Scr::Mepcc, Zero); // read MEPCC
        a.cincaddrimm(A4, A4, 4);           // skip faulting instr
        a.cspecialrw(Zero, Scr::Mepcc, A4);
        a.mret();
        a.bind(around);
        // MTCC = sentry to handler (PCC-derived).
        a.auipcc(A2, 0);
        const int32_t handlerOff = static_cast<int32_t>(kEntry + 4) -
                                   static_cast<int32_t>(a.pc());
        (void)handler;
        a.cincaddrimm(A2, A2, handlerOff + 4);
        a.cspecialrw(Zero, Scr::Mtcc, A2);
        // Fault: load through an untagged capability.
        a.ccleartag(A3, A0);
        a.lw(T0, A3, 0);
        a.li(A3, 77); // reached only if the handler resumed us
        a.ebreak();
    });
    EXPECT_EQ(machine->haltReason(), HaltReason::Breakpoint);
    EXPECT_EQ(machine->readRegInt(A3), 77u);
    EXPECT_EQ(machine->readRegInt(A5),
              static_cast<uint32_t>(TrapCause::CheriTagViolation));
}

TEST(MachineExec, ConsoleOutputAndExit)
{
    auto machine = runProgram([](Assembler &a) {
        a.li(T0, static_cast<int32_t>(mem::kConsoleMmioBase));
        a.csetaddr(A2, A0, T0);
        a.li(T1, 'h');
        a.sw(T1, A2, 0);
        a.li(T1, 'i');
        a.sw(T1, A2, 0);
        a.li(T1, 3);
        a.sw(T1, A2, 4); // exit(3)
        a.ebreak();      // not reached
    });
    EXPECT_EQ(machine->haltReason(), HaltReason::ConsoleExit);
    EXPECT_EQ(machine->console().exitCode(), 3u);
    EXPECT_EQ(machine->console().output(), "hi");
}

TEST(MachineExec, CheckedStoreOverCodeReachesTheNextFetch)
{
    // Run `addi t0, zero, 1`, overwrite it through a checked store and
    // run it again. The second run must execute what memory now holds,
    // and a save/restore between the store and the fetch must not
    // change what runs (DESIGN.md §8.2). The capability store writes
    // `addi t0, zero, 7` as its address word; zeroing leaves an
    // illegal instruction, so t0 keeps its reset value.
    const auto program = [](int32_t imm) {
        Assembler a(kEntry);
        a.addi(T0, Zero, imm);
        a.ebreak();
        return a.finish();
    };
    const uint32_t newWord = program(7)[0];
    const Capability root = Capability::memoryRoot();
    const std::pair<const char *, std::function<TrapCause(Machine &)>>
        stores[] = {
            {"data",
             [&](Machine &m) {
                 return m.storeData(root, kEntry, 4, newWord, false);
             }},
            {"cap",
             [&](Machine &m) {
                 return m.storeCap(root, kEntry,
                                   root.withAddress(newWord)
                                       .withTagCleared(),
                                   false);
             }},
            {"zero",
             [&](Machine &m) {
                 return m.zeroMemory(root, kEntry, 8, false);
             }},
        };
    for (const auto &[kind, store] : stores) {
        for (const bool viaSnapshot : {false, true}) {
            Machine machine(smallConfig(CoreConfig::ibex()));
            machine.loadProgram(program(1), kEntry);
            machine.resetCpu(kEntry);
            machine.run(16);
            ASSERT_EQ(machine.readRegInt(T0), 1u);

            ASSERT_EQ(store(machine), TrapCause::None) << kind;
            if (viaSnapshot) {
                ASSERT_TRUE(machine.restoreImage(machine.saveImage()));
            }
            machine.resetCpu(kEntry);
            machine.run(16);
            EXPECT_EQ(machine.readRegInt(T0),
                      std::string(kind) == "zero" ? 0u : 7u)
                << kind << " viaSnapshot " << viaSnapshot;
        }
    }
}

TEST(MachineExec, RevokerWindowIsClampedToSram)
{
    // Guest stores program the background revoker's window and kick
    // it. A window with no SRAM in it (start 0x0, end 0x1000) starts
    // nothing; one that straddles the start of SRAM sweeps only its
    // SRAM part. Either way the registers read back what was written
    // and no sweep reads outside SRAM.
    const auto programWindow = [](uint32_t start, uint32_t end) {
        return runProgram([=](Assembler &a) {
            a.li(T0, static_cast<int32_t>(mem::kRevokerMmioBase));
            a.csetaddr(A2, A0, T0);
            a.li(T1, static_cast<int32_t>(start));
            a.sw(T1, A2, 0x0);
            a.li(T1, static_cast<int32_t>(end));
            a.sw(T1, A2, 0x4);
            a.sw(T1, A2, 0xc); // kick
            a.ebreak();
        });
    };

    auto outside = programWindow(0x0, 0x1000);
    ASSERT_EQ(outside->haltReason(), HaltReason::Breakpoint);
    revoker::BackgroundRevoker &idle = outside->backgroundRevoker();
    EXPECT_EQ(idle.kicksReceived.value(), 1u);
    EXPECT_EQ(idle.epoch(), 0u) << "an empty window starts no sweep";
    outside->idle(100'000);
    EXPECT_EQ(idle.wordsExamined.value(), 0u);
    EXPECT_EQ(idle.read32(0x0), 0x0u);
    EXPECT_EQ(idle.read32(0x4), 0x1000u);

    auto straddling =
        programWindow(mem::kSramBase - 0x100, mem::kSramBase + 0x100);
    ASSERT_EQ(straddling->haltReason(), HaltReason::Breakpoint);
    straddling->idle(100'000);
    revoker::BackgroundRevoker &swept = straddling->backgroundRevoker();
    EXPECT_EQ(swept.epoch(), 2u) << "one sweep, completed";
    EXPECT_EQ(swept.wordsExamined.value(), 0x100u / 8);
    EXPECT_EQ(swept.read32(0x0), mem::kSramBase - 0x100);
}

TEST(MachineExec, StackHighWaterMarkTracksLowestStore)
{
    auto machine = runProgram([](Assembler &a) {
        const uint32_t stackTop = kEntry + 0x4000;
        // mshwmb = stack base, mshwm = top.
        a.li(T0, static_cast<int32_t>(stackTop - 0x1000));
        a.csrrw(Zero, kCsrMshwmb, T0);
        a.li(T0, static_cast<int32_t>(stackTop));
        a.csrrw(Zero, kCsrMshwm, T0);
        // Store descending.
        a.li(T1, static_cast<int32_t>(stackTop - 64));
        a.csetaddr(A2, A0, T1);
        a.sw(Zero, A2, 0);
        a.sw(Zero, A2, -128);
        a.sw(Zero, A2, -64);
        a.csrrs(A3, kCsrMshwm, Zero);
        a.ebreak();
    });
    const uint32_t stackTop = kEntry + 0x4000;
    // Lowest store was at stackTop - 64 - 128.
    EXPECT_EQ(machine->readRegInt(A3), stackTop - 192);
}

TEST(MachineExec, TimingDiffersAcrossCores)
{
    auto program = [](Assembler &a) {
        const uint32_t buffer = kEntry + 0x2000;
        a.li(T0, static_cast<int32_t>(buffer));
        a.csetaddr(A2, A0, T0);
        a.csc(A0, A2, 0);
        a.li(A3, 200);
        auto loop = a.here();
        a.clc(A4, A2, 0); // capability load in a hot loop
        a.addi(A3, A3, -1);
        a.bnez(A3, loop);
        a.ebreak();
    };
    auto flute = runProgram(program, CoreConfig::flute());
    auto ibex = runProgram(program, CoreConfig::ibex());
    EXPECT_EQ(flute->haltReason(), HaltReason::Breakpoint);
    EXPECT_EQ(ibex->haltReason(), HaltReason::Breakpoint);
    // The narrow bus + load filter make Ibex strictly slower on
    // capability loads.
    EXPECT_GT(ibex->cycles(), flute->cycles());
}

TEST(MachineExec, BaselineModeRunsWithoutCapabilities)
{
    CoreConfig core = CoreConfig::ibex();
    core.cheriEnabled = false;
    auto machine = runProgram(
        [](Assembler &a) {
            const uint32_t buffer = kEntry + 0x2000;
            a.li(A2, static_cast<int32_t>(buffer));
            a.li(T1, 0xabc);
            a.sw(T1, A2, 0);
            a.lw(A3, A2, 0);
            a.ebreak();
        },
        core);
    EXPECT_EQ(machine->haltReason(), HaltReason::Breakpoint);
    EXPECT_EQ(machine->readRegInt(A3), 0xabcu);
}

TEST(MachineExec, LoadFilterStripsRevokedCapability)
{
    MachineConfig config = smallConfig(CoreConfig::ibex());
    Machine machine(config);

    // Place a capability to heap memory in SRAM, then paint its
    // granule as revoked and load it back.
    const uint32_t heapObj = machine.heapBase() + 0x100;
    const uint32_t slot = machine.heapBase() + 0x800;
    const Capability heapRef = Capability::memoryRoot()
                                   .withAddress(heapObj)
                                   .withBounds(32);
    ASSERT_TRUE(heapRef.tag());

    const Capability root = Capability::memoryRoot();
    ASSERT_EQ(machine.storeCap(root, slot, heapRef), TrapCause::None);

    Capability loaded;
    ASSERT_EQ(machine.loadCap(root, slot, &loaded), TrapCause::None);
    EXPECT_TRUE(loaded.tag());

    machine.revocationBitmap().setRange(heapObj, 32);
    ASSERT_EQ(machine.loadCap(root, slot, &loaded), TrapCause::None);
    EXPECT_FALSE(loaded.tag()) << "load filter must strip the tag";

    // With the filter disabled the stale capability would leak.
    machine.loadFilter().setEnabled(false);
    ASSERT_EQ(machine.loadCap(root, slot, &loaded), TrapCause::None);
    EXPECT_TRUE(loaded.tag());
}

TEST(MachineExec, StoreLocalRequiresPermission)
{
    MachineConfig config = smallConfig(CoreConfig::ibex());
    Machine machine(config);

    const Capability root = Capability::memoryRoot();
    const Capability local = root.withPermsAnd(
        static_cast<uint16_t>(~cap::PermGlobal));
    ASSERT_TRUE(local.isLocal());

    // Authority without SL cannot store a local capability...
    const Capability noSl = root.withPermsAnd(
        static_cast<uint16_t>(~cap::PermStoreLocal));
    EXPECT_EQ(machine.storeCap(noSl, machine.heapBase(), local),
              TrapCause::CheriStoreLocalViolation);
    // ...but can store a global one.
    EXPECT_EQ(machine.storeCap(noSl, machine.heapBase(), root),
              TrapCause::None);
    // And SL authority can store locals.
    EXPECT_EQ(machine.storeCap(root, machine.heapBase(), local),
              TrapCause::None);
}

} // namespace
} // namespace cheriot::sim
