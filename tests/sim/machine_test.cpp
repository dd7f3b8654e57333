/**
 * @file
 * End-to-end tests of the CPU model: guest programs assembled with
 * the builder API, executed on both cores, exercising arithmetic,
 * control flow, memory (with capability checks), sentries and traps.
 */

#include "../isa/register_ops.h"
#include "debug/run_control.h"
#include "isa/assembler.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"
#include "workloads/coremark/coremark.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

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

/** run() over uneven slices until @p budget instructions or a halt,
 * as one RunResult. */
RunResult
runInSlices(Machine &machine, uint64_t budget)
{
    static constexpr uint64_t kSlices[] = {1, 7, 3, 1000, 2, 65536};
    RunResult total{HaltReason::InstrLimit, 0, 0};
    for (size_t i = 0; total.instructions < budget && !machine.halted();
         ++i) {
        const RunResult slice =
            machine.run(std::min(kSlices[i % std::size(kSlices)],
                                 budget - total.instructions));
        total.reason = slice.reason;
        total.instructions += slice.instructions;
        total.cycles += slice.cycles;
    }
    return total;
}

constexpr uint64_t kWholeRun = uint64_t{1} << 26;

/** x0 reads as the null capability, whatever the run wrote to it. */
void
expectNullZero(const Machine &machine)
{
    EXPECT_FALSE(machine.readReg(Zero).tag());
    EXPECT_EQ(machine.readReg(Zero).toBits(), 0u);
}

/** Record every retired PC of @p machine into @p pcs. */
void
tracePcs(Machine &machine, std::vector<uint32_t> &pcs)
{
    machine.setTraceHook(
        [&pcs](uint32_t pc, const Inst &) { pcs.push_back(pc); });
}

/** Index of the first entry where @p a and @p b differ (the shorter
 * length when one is a prefix of the other); SIZE_MAX when equal. */
size_t
firstDifference(const std::vector<uint32_t> &a,
                const std::vector<uint32_t> &b)
{
    const auto [ai, bi] = std::mismatch(a.begin(), a.end(), b.begin(),
                                        b.end());
    return ai == a.end() && bi == b.end()
               ? SIZE_MAX
               : static_cast<size_t>(ai - a.begin());
}

/**
 * run() and runControl() are one loop: run() in uneven slices (whole
 * blocks) and runControl() under an empty RunControl (one instruction
 * per block) give equal results, equal end states, equal retired-PC
 * traces and equal decode fills (no word is decoded before its
 * fetch), whether the program ends the run or the budget ends it
 * halfway; x0 reads null after each. @p check sees the sliced machine
 * once the program has ended. Returns the program's exit code.
 */
uint32_t
expectOneRunLoop(const std::vector<uint32_t> &program, uint32_t entry,
                 const CoreConfig &core = CoreConfig::ibex(),
                 const std::function<void(Machine &)> &check = {})
{
    uint32_t exitCode = 0;
    uint64_t half = 0;
    for (const bool whole : {true, false}) {
        const uint64_t budget = whole ? kWholeRun : half;
        Machine sliced(smallConfig(core));
        Machine controlled(smallConfig(core));
        for (Machine *machine : {&sliced, &controlled}) {
            machine->loadProgram(program, entry);
            machine->resetCpu(entry);
        }
        debug::RunControl rc;
        controlled.setRunControl(&rc);
        std::vector<uint32_t> slicedPcs;
        std::vector<uint32_t> controlledPcs;
        tracePcs(sliced, slicedPcs);
        tracePcs(controlled, controlledPcs);
        const RunResult a = runInSlices(sliced, budget);
        const RunResult b = controlled.runControl(budget, false);
        EXPECT_EQ(slicedPcs.size(), a.instructions) << budget;
        EXPECT_EQ(firstDifference(slicedPcs, controlledPcs), SIZE_MAX)
            << budget;
        expectNullZero(sliced);
        expectNullZero(controlled);
        EXPECT_EQ(a.reason, b.reason) << budget;
        EXPECT_EQ(a.instructions, b.instructions) << budget;
        EXPECT_EQ(a.cycles, b.cycles) << budget;
        EXPECT_EQ(sliced.stateDigest(), controlled.stateDigest()) << budget;
        EXPECT_EQ(sliced.decodeFills.value(), controlled.decodeFills.value())
            << budget;
        EXPECT_EQ(b.reason,
                  whole ? HaltReason::ConsoleExit : HaltReason::InstrLimit);
        if (whole) {
            exitCode = controlled.console().exitCode();
            half = b.instructions / 2;
            if (check) {
                check(sliced);
            }
        }
    }
    return exitCode;
}

/** Exit through the console with @p value as the code (clobbers
 * @p scratch and t0; a0 must still hold the memory root). */
void
exitWith(Assembler &a, uint8_t value, uint8_t scratch)
{
    a.li(T0, static_cast<int32_t>(mem::kConsoleMmioBase));
    a.csetaddr(scratch, A0, T0);
    a.sw(value, scratch, 4);
    a.ebreak(); // not reached
}

/** Jump over a trap handler that exits with @p value and mcause in
 * a5, and install it as MTCC. */
void
installExitingHandler(Assembler &a, uint8_t value)
{
    auto around = a.newLabel();
    a.j(around);
    const uint32_t handler = a.pc();
    a.csrrs(A5, kCsrMcause, Zero);
    exitWith(a, value, A2);
    a.bind(around);
    const uint32_t here = a.pc();
    a.auipcc(A2, 0);
    a.cincaddrimm(A2, A2,
                  static_cast<int32_t>(handler) - static_cast<int32_t>(here));
    a.cspecialrw(Zero, Scr::Mtcc, A2);
}

TEST(RunLoop, SlicedRunAndRunControlAgreeOnCoreMark)
{
    workloads::CoreMarkConfig config;
    config.iterations = 2;
    workloads::CoreMarkBuilder builder(config);
    expectOneRunLoop(builder.build(), builder.entry());
}

TEST(RunLoop, SlicedRunAndRunControlAgreeOnATrappingProgram)
{
    Assembler a(kEntry);
    // A handler that counts traps in a5 and skips the faulting
    // instruction (misaligned loads: not a capability fault, so the
    // RunControl does not stop on them).
    auto around = a.newLabel();
    a.j(around);
    a.addi(A5, A5, 1);
    a.cspecialrw(A4, Scr::Mepcc, Zero);
    a.cincaddrimm(A4, A4, 4);
    a.cspecialrw(Zero, Scr::Mepcc, A4);
    a.mret();
    a.bind(around);
    a.auipcc(A2, 0);
    a.cincaddrimm(A2, A2,
                  static_cast<int32_t>(kEntry + 4) -
                      static_cast<int32_t>(a.pc()) + 4);
    a.cspecialrw(Zero, Scr::Mtcc, A2);
    a.li(T0, static_cast<int32_t>(kEntry + 0x2000));
    a.csetaddr(A3, A0, T0);
    a.li(T1, 40);
    auto loop = a.here();
    a.lw(T2, A3, 2);
    a.addi(T1, T1, -1);
    a.bne(T1, Zero, loop);
    a.li(T0, static_cast<int32_t>(mem::kConsoleMmioBase));
    a.csetaddr(A2, A0, T0);
    a.sw(A5, A2, 4); // exit(trap count)
    a.ebreak();      // not reached
    EXPECT_EQ(expectOneRunLoop(a.finish(), kEntry), 40u);
}

// The block rules. Each straight-line run executes once before the
// case it tests, so its words are decoded and form one block.

TEST(RunLoop, StoreOverTheRestOfItsBlockEndsTheBlock)
{
    // Each pass overwrites the next word with `addi a5, a5, pass`
    // (1, 2, 3); the new word must run, not the decode of the last.
    Assembler a(kEntry);
    a.li(A5, 0);
    a.li(T1, static_cast<int32_t>(encode({Op::Addi, A5, A5, 0, 1, 0})));
    a.li(T2, 1 << 20); // +1 in an I-type immediate
    a.li(S1, 3);
    const uint32_t anchor = a.pc();
    a.auipcc(A3, 0);
    a.cgetaddr(T0, A3);
    a.csetaddr(A2, A0, T0); // store authority over the code
    auto loop = a.here();
    a.sw(T1, A2, static_cast<int32_t>(a.pc() + 4 - anchor));
    a.addi(A5, A5, 100); // overwritten before it ever runs
    a.add(T1, T1, T2);
    a.addi(S1, S1, -1);
    a.bnez(S1, loop);
    exitWith(a, A5, A2);
    EXPECT_EQ(expectOneRunLoop(a.finish(), kEntry), 1u + 2u + 3u);
}

TEST(RunLoop, ConsoleExitEndsTheBlockAtTheStore)
{
    // The first pass stores to RAM, the second to the exit register;
    // the run halts right after that store.
    Assembler a(kEntry);
    a.li(A4, 0);
    a.li(T0, static_cast<int32_t>(kEntry + 0x2000));
    a.csetaddr(A2, A0, T0);
    a.li(T0, static_cast<int32_t>(mem::kConsoleMmioBase + 4));
    a.csetaddr(A3, A0, T0);
    a.li(T1, 42);
    auto loop = a.here();
    const uint32_t storeAt = a.pc();
    a.sw(T1, A2, 0);
    a.addi(A4, A4, 1);
    a.addi(A4, A4, 1);
    a.cmove(A2, A3);
    a.j(loop);
    EXPECT_EQ(expectOneRunLoop(a.finish(), kEntry, CoreConfig::ibex(),
                               [&](Machine &m) {
                                   EXPECT_EQ(m.readRegInt(A4), 2u);
                                   EXPECT_EQ(m.pcc().address(), storeAt + 4);
                               }),
              42u);
}

TEST(RunLoop, PccTopInsideABlockTrapsAtTheFirstWordPastIt)
{
    // `run` is called with the whole PCC, then with PCC bounded to its
    // first five words: the fetch of the sixth traps.
    Assembler a(kEntry);
    installExitingHandler(a, A4);
    auto start = a.newLabel();
    a.j(start);
    const uint32_t runAt = a.pc();
    for (int i = 0; i < 8; ++i) {
        a.addi(A4, A4, 1);
    }
    a.ret();
    a.bind(start);
    const uint32_t here = a.pc();
    a.auipcc(A3, 0);
    a.cincaddrimm(A3, A3,
                  static_cast<int32_t>(runAt) - static_cast<int32_t>(here));
    a.li(A4, 0);
    a.jalr(Ra, A3);
    a.li(T0, 5 * 4);
    a.csetbounds(A3, A3, T0);
    a.jalr(Ra, A3);
    a.ebreak(); // not reached
    EXPECT_EQ(expectOneRunLoop(
                  a.finish(), kEntry, CoreConfig::ibex(),
                  [&](Machine &m) {
                      EXPECT_EQ(m.readRegInt(A5),
                                static_cast<uint32_t>(
                                    TrapCause::InstrAccessFault));
                      EXPECT_EQ(m.csrs().mtval, runAt + 5 * 4);
                      EXPECT_EQ(m.csrs().mepcc.address(), runAt + 5 * 4);
                  }),
              8u + 5u);
}

TEST(RunLoop, TimerInterruptInsideABlockIsTakenAtTheSameBoundary)
{
    Assembler a(kEntry);
    installExitingHandler(a, A4);
    a.li(A4, 0);
    a.li(T0, static_cast<int32_t>(mem::kTimerMmioBase));
    a.csetaddr(A2, A0, T0);
    a.lw(T1, A2, 0x0);
    a.addi(T1, T1, 301);
    a.sw(Zero, A2, 0xc);
    a.sw(T1, A2, 0x8); // compare = now + 301, armed
    a.li(T0, 8);
    a.csrrs(Zero, kCsrMstatus, T0); // interrupts on
    auto loop = a.here();
    for (int i = 0; i < 6; ++i) {
        a.addi(A4, A4, 1);
    }
    a.j(loop);
    const uint32_t count = expectOneRunLoop(
        a.finish(), kEntry, CoreConfig::ibex(), [](Machine &m) {
            EXPECT_EQ(m.readRegInt(A5),
                      static_cast<uint32_t>(TrapCause::TimerInterrupt));
        });
    EXPECT_GT(count, 6u);
}

TEST(RunLoop, RevokerCompletionInsideABlockIsTakenAtTheSameBoundary)
{
    // The first pass stores to RAM, the second kicks a sweep of 1 KiB;
    // the completion interrupt arrives while the loop runs.
    Assembler a(kEntry);
    installExitingHandler(a, A4);
    a.li(A4, 0);
    a.li(T0, static_cast<int32_t>(mem::kRevokerMmioBase));
    a.csetaddr(A3, A0, T0);
    a.li(T1, static_cast<int32_t>(kEntry + 0x2000));
    a.sw(T1, A3, 0x0);
    a.li(T1, static_cast<int32_t>(kEntry + 0x2400));
    a.sw(T1, A3, 0x4);
    a.cincaddrimm(A3, A3, 0xc); // the kick register
    a.li(T0, static_cast<int32_t>(kEntry + 0x3000));
    a.csetaddr(A2, A0, T0);
    a.li(T0, 8);
    a.csrrs(Zero, kCsrMstatus, T0); // interrupts on
    auto loop = a.here();
    a.sw(T1, A2, 0);
    for (int i = 0; i < 16; ++i) {
        a.addi(A4, A4, 1);
    }
    a.cmove(A2, A3);
    a.j(loop);
    const uint32_t count = expectOneRunLoop(
        a.finish(), kEntry, CoreConfig::ibex(), [](Machine &m) {
            EXPECT_EQ(m.readRegInt(A5),
                      static_cast<uint32_t>(TrapCause::RevokerInterrupt));
            EXPECT_EQ(m.backgroundRevoker().epoch(), 2u) << "one sweep";
        });
    EXPECT_GT(count, 16u);
}

/** @name Seeded programs
 * A loop run kSeededPasses times over a body of seeded items: ALU,
 * M-extension and capability ops shaped by summaryOf(); byte, half,
 * word and capability loads and stores through one bounded data
 * capability; forward branches and JALs; and stores that rewrite a
 * word 1-3 words further on with an I-type op whose immediate grows
 * by one each pass. Then a console exit. Registers: a0 keeps the
 * memory root, s0 the data capability, s1 the pass, gp the pass << 20
 * and t2 the rewritten word; the ops write only kScratch, which
 * includes x0 (the write is discarded). @{ */
constexpr uint8_t kScratch[] = {Zero, Ra, Sp, Tp, T0, T1,
                                A1,   A2, A3, A4, A5};
constexpr uint8_t kReadable[] = {Zero, Ra, Sp, Gp, Tp, T0, T1, S0,
                                 A0,   A1, A2, A3, A4, A5};
constexpr uint32_t kSeededPasses = 4;
constexpr uint32_t kSeededItems = 80;
/** The data bytes sit just below the code; the data capability also
 * covers the first kCodeBytes of code, which the rewrites reach. */
constexpr uint32_t kDataBytes = 256;
constexpr uint32_t kCodeBytes = 1536;

template <size_t N>
uint8_t
pick(Rng &rng, const uint8_t (&regs)[N])
{
    return regs[rng.below(N)];
}

/** A seeded instance of @p op with operands shaped by its summary. */
Inst
seededInst(Op op, Rng &rng)
{
    const OpSummary &summary = summaryOf(op);
    Inst inst;
    inst.op = op;
    inst.rd = summary.writesRd ? pick(rng, kScratch) : 0;
    inst.rs1 = summary.readsRs1 ? pick(rng, kReadable) : 0;
    inst.rs2 = summary.readsRs2 ? pick(rng, kReadable) : 0;
    switch (summary.immKind) {
      case ImmKind::I12:
        inst.imm = static_cast<int32_t>(rng.below(4096)) - 2048;
        break;
      case ImmKind::U12:
        inst.imm = static_cast<int32_t>(rng.below(4096));
        break;
      case ImmKind::U20:
        inst.imm = static_cast<int32_t>(rng.below(1u << 20) << 12);
        break;
      case ImmKind::Shamt:
        inst.imm = static_cast<int32_t>(rng.below(32));
        break;
      case ImmKind::Posture:
        inst.imm = static_cast<int32_t>(rng.below(3));
        break;
      default:
        break;
    }
    return inst;
}

std::vector<uint32_t>
seededProgram(uint64_t seed)
{
    Rng rng(seed);
    const uint32_t dataBase = kEntry - kDataBytes;
    Assembler a(kEntry);
    a.li(T0, static_cast<int32_t>(dataBase));
    a.csetaddr(S0, A0, T0);
    a.li(T0, static_cast<int32_t>(kDataBytes + kCodeBytes));
    a.csetbounds(S0, S0, T0);
    a.li(S1, 0);
    auto loop = a.here();
    a.slli(Gp, S1, 20);

    // Forward targets: a label and the items still to go before it.
    std::vector<std::pair<Assembler::Label, uint32_t>> targets;
    const auto forward = [&] {
        const Assembler::Label label = a.newLabel();
        targets.emplace_back(label, 1 + rng.below(6));
        return label;
    };
    static constexpr Op kMemoryOps[] = {Op::Lb, Op::Lh, Op::Lw,  Op::Lbu,
                                        Op::Lhu, Op::Sb, Op::Sh, Op::Sw,
                                        Op::Clc, Op::Csc};
    using Branch = void (Assembler::*)(uint8_t, uint8_t, Assembler::Label);
    static constexpr Branch kBranches[] = {
        &Assembler::beq, &Assembler::bne,  &Assembler::blt,
        &Assembler::bge, &Assembler::bltu, &Assembler::bgeu};
    for (uint32_t item = 0; item < kSeededItems; ++item) {
        for (auto it = targets.begin(); it != targets.end();) {
            if (--it->second == 0) {
                a.bind(it->first);
                it = targets.erase(it);
            } else {
                ++it;
            }
        }
        const uint32_t kind = rng.below(20);
        if (kind < 10) {
            const std::vector<Op> &ops = registerOps();
            a.emit(seededInst(ops[rng.below(ops.size())], rng));
        } else if (kind < 14) {
            const Op op = kMemoryOps[rng.below(std::size(kMemoryOps))];
            const unsigned bytes =
                op == Op::Lb || op == Op::Lbu || op == Op::Sb   ? 1
                : op == Op::Lh || op == Op::Lhu || op == Op::Sh ? 2
                : op == Op::Clc || op == Op::Csc                ? 8
                                                                : 4;
            const int32_t offset =
                static_cast<int32_t>(rng.below(kDataBytes / bytes) * bytes);
            const bool store =
                op == Op::Sb || op == Op::Sh || op == Op::Sw || op == Op::Csc;
            a.emit({op, store ? uint8_t{0} : pick(rng, kScratch), S0,
                    store ? pick(rng, kReadable) : uint8_t{0}, offset, 0});
        } else if (kind < 16) {
            const Branch branch = kBranches[rng.below(std::size(kBranches))];
            const uint8_t rs1 = pick(rng, kReadable);
            const uint8_t rs2 = pick(rng, kReadable);
            (a.*branch)(rs1, rs2, forward());
        } else if (kind < 17) {
            const uint8_t link = rng.chance(1, 2) ? Zero : pick(rng, kScratch);
            a.jal(link, forward());
        } else {
            // Rewrite a word 1-3 words on with this pass's immediate.
            const Inst base{rng.chance(1, 2) ? Op::Addi : Op::Xori,
                            pick(rng, kScratch), pick(rng, kReadable), 0,
                            static_cast<int32_t>(rng.below(64)), 0};
            a.li(T2, static_cast<int32_t>(encode(base)));
            a.add(T2, T2, Gp);
            const uint32_t distance = 1 + rng.below(3);
            const uint32_t target = a.pc() + 4 * distance;
            EXPECT_LT(target - dataBase, 2048u) << "seed " << seed;
            a.sw(T2, S0, static_cast<int32_t>(target - dataBase));
            for (uint32_t i = 1; i < distance; ++i) {
                const std::vector<Op> &ops = registerOps();
                a.emit(seededInst(ops[rng.below(ops.size())], rng));
            }
            a.emit(base);
        }
    }
    for (const auto &[label, left] : targets) {
        a.bind(label);
    }
    a.addi(S1, S1, 1);
    a.li(T2, kSeededPasses);
    a.blt(S1, T2, loop);
    exitWith(a, A5, T2);
    EXPECT_LE(a.pc() - kEntry, kCodeBytes) << "seed " << seed;
    return a.finish();
}
/** @} */

/** run() with a save and a restore into a fresh machine after
 * @p boundary instructions equals one unbroken run(). */
void
expectRestoreAgrees(const std::vector<uint32_t> &program,
                    const CoreConfig &core, uint64_t boundary)
{
    Machine straight(smallConfig(core));
    Machine before(smallConfig(core));
    for (Machine *machine : {&straight, &before}) {
        machine->loadProgram(program, kEntry);
        machine->resetCpu(kEntry);
    }
    const RunResult whole = straight.run(kWholeRun);
    const RunResult head = before.run(boundary);
    Machine after(smallConfig(core));
    ASSERT_TRUE(after.restoreImage(before.saveImage()));
    const RunResult tail = after.run(kWholeRun);
    for (const Machine *machine : {&straight, &before, &after}) {
        expectNullZero(*machine);
    }
    EXPECT_EQ(tail.reason, whole.reason);
    EXPECT_EQ(head.instructions + tail.instructions, whole.instructions);
    EXPECT_EQ(head.cycles + tail.cycles, whole.cycles);
    EXPECT_EQ(after.stateDigest(), straight.stateDigest());
}

TEST(RunLoop, SeededProgramsAgree)
{
    Rng seeds(0xb10c5);
    for (int n = 0; n < 48; ++n) {
        const uint64_t seed = seeds.next64();
        const CoreConfig core =
            n % 2 == 0 ? CoreConfig::ibex() : CoreConfig::flute();
        SCOPED_TRACE(testing::Message() << "seed 0x" << std::hex << seed
                                        << " on " << core.name);
        const std::vector<uint32_t> program = seededProgram(seed);
        uint64_t length = 0;
        expectOneRunLoop(program, kEntry, core, [&](Machine &m) {
            length = m.instructions();
        });
        ASSERT_GT(length, 1u);
        expectRestoreAgrees(program, core,
                            1 + Rng(seed).below(
                                    static_cast<uint32_t>(length - 1)));
    }
}

} // namespace
} // namespace cheriot::sim
