/**
 * @file
 * System-level machine features: timer interrupts delivered through
 * MTCC, the revoker completion interrupt, CSR file behaviour, and
 * the execution tracer.
 */

#include "isa/assembler.h"
#include "sim/machine.h"
#include "sim/tracer.h"

#include <gtest/gtest.h>

namespace cheriot::sim
{
namespace
{

using cap::Capability;
using namespace cheriot::isa;

constexpr uint32_t kEntry = mem::kSramBase + 0x1000;

MachineConfig
smallConfig()
{
    MachineConfig config;
    config.core = CoreConfig::ibex();
    config.sramSize = 128u << 10;
    config.heapOffset = 64u << 10;
    config.heapSize = 32u << 10;
    return config;
}

TEST(SystemTest, TimerInterruptDeliveredThroughHandler)
{
    Machine machine(smallConfig());
    Assembler a(kEntry);

    // Handler: record mcause, disarm by reading, and spin-exit.
    auto around = a.newLabel();
    a.j(around);
    a.csrrs(A5, kCsrMcause, Zero); // handler at kEntry + 4
    a.ebreak();
    a.bind(around);
    // Install MTCC.
    a.auipcc(A2, 0);
    const int32_t off =
        static_cast<int32_t>(kEntry + 4) - static_cast<int32_t>(a.pc());
    a.cincaddrimm(A2, A2, off + 4);
    a.cspecialrw(Zero, Scr::Mtcc, A2);
    // Arm the timer: mtimecmp = now + ~200 cycles.
    a.li(T0, static_cast<int32_t>(mem::kTimerMmioBase));
    a.csetaddr(A3, A0, T0);
    a.lw(T1, A3, 0x0); // mtime low
    a.addi(T1, T1, 200);
    a.sw(T1, A3, 0x8); // mtimecmp low
    a.sw(Zero, A3, 0xc);
    // Enable interrupts and spin.
    a.li(T0, 8);
    a.csrrs(Zero, kCsrMstatus, T0);
    const auto spin = a.here();
    a.addi(A4, A4, 1);
    a.j(spin);

    machine.loadProgram(a.finish(), kEntry);
    machine.resetCpu(kEntry);
    const auto result = machine.run(1u << 16);

    EXPECT_EQ(result.reason, HaltReason::Breakpoint);
    EXPECT_EQ(machine.readRegInt(A5),
              static_cast<uint32_t>(TrapCause::TimerInterrupt));
    EXPECT_GT(machine.readRegInt(A4), 10u) << "spun before the interrupt";
}

TEST(SystemTest, InterruptsMaskedWhenMieClear)
{
    Machine machine(smallConfig());
    Assembler a(kEntry);
    // Arm the timer but leave interrupts disabled; spin N times and
    // exit normally.
    a.li(T0, static_cast<int32_t>(mem::kTimerMmioBase));
    a.csetaddr(A3, A0, T0);
    a.sw(Zero, A3, 0x8); // mtimecmp = 0: already due
    a.sw(Zero, A3, 0xc);
    a.li(A4, 100);
    const auto spin = a.here();
    a.addi(A4, A4, -1);
    a.bnez(A4, spin);
    a.ebreak();
    machine.loadProgram(a.finish(), kEntry);
    machine.resetCpu(kEntry);
    const auto result = machine.run(1u << 16);
    EXPECT_EQ(result.reason, HaltReason::Breakpoint);
    EXPECT_EQ(machine.trapCount(), 0u);
}

TEST(SystemTest, RevokerCompletionInterrupt)
{
    Machine machine(smallConfig());
    machine.csrs().mtcc = Capability::executableRoot().withAddress(kEntry);
    machine.setInterruptsEnabled(true);

    auto &engine = machine.backgroundRevoker();
    ASSERT_TRUE(engine.completionInterrupt());
    engine.write32(0x0, machine.heapBase());
    engine.write32(0x4, machine.heapBase() + 4096);
    engine.write32(0xc, 1);
    while (engine.sweeping()) {
        machine.idle(64);
    }
    // Load a trivial program at the handler address so the trap can
    // retire one instruction.
    Assembler a(kEntry);
    a.ebreak();
    machine.loadProgram(a.finish(), kEntry);
    machine.setPcc(Capability::executableRoot().withAddress(kEntry));
    machine.step(); // takes the pending revoker IRQ
    EXPECT_EQ(machine.csrs().mcause,
              static_cast<uint32_t>(TrapCause::RevokerInterrupt));
}

TEST(SystemTest, CsrFileReadWrite)
{
    CsrFile csrs;
    uint32_t value = 0;
    EXPECT_TRUE(csrs.write(kCsrMshwmb, 0x20001000));
    EXPECT_TRUE(csrs.read(kCsrMshwmb, 0, &value));
    EXPECT_EQ(value, 0x20001000u);

    // mshwm writes are word-granular.
    EXPECT_TRUE(csrs.write(kCsrMshwm, 0x20001237));
    EXPECT_TRUE(csrs.read(kCsrMshwm, 0, &value));
    EXPECT_EQ(value, 0x20001234u);

    // Cycle counter reads the supplied cycle, split across two CSRs.
    EXPECT_TRUE(csrs.read(kCsrMcycle, 0x1234567890ull, &value));
    EXPECT_EQ(value, 0x34567890u);
    EXPECT_TRUE(csrs.read(kCsrMcycleH, 0x1234567890ull, &value));
    EXPECT_EQ(value, 0x12u);
    EXPECT_FALSE(csrs.write(kCsrMcycle, 1)) << "read-only";

    // Unknown CSRs are rejected.
    EXPECT_FALSE(csrs.read(0x123, 0, &value));
    EXPECT_FALSE(csrs.write(0x123, 1));

    // mstatus packs MIE/MPIE.
    EXPECT_TRUE(csrs.write(kCsrMstatus, (1u << 3) | (1u << 7)));
    EXPECT_TRUE(csrs.mie);
    EXPECT_TRUE(csrs.mpie);
}

TEST(SystemTest, HwmNoteStoreSemantics)
{
    CsrFile csrs;
    csrs.mshwmb = 0x1000;
    csrs.mshwm = 0x2000;
    EXPECT_FALSE(csrs.noteStore(0x2000)) << "at the mark: no update";
    EXPECT_TRUE(csrs.noteStore(0x1800));
    EXPECT_EQ(csrs.mshwm, 0x1800u);
    EXPECT_FALSE(csrs.noteStore(0x1900)) << "above the mark";
    EXPECT_FALSE(csrs.noteStore(0x0800)) << "below the stack base";
    EXPECT_EQ(csrs.mshwm, 0x1800u);
}

TEST(SystemTest, RingTracerCapturesInstructionStream)
{
    Machine machine(smallConfig());
    RingTracer tracer(8);
    tracer.attach(machine);

    Assembler a(kEntry);
    a.li(A2, 1);
    a.li(A3, 2);
    a.add(A4, A2, A3);
    a.ebreak();
    machine.loadProgram(a.finish(), kEntry);
    machine.resetCpu(kEntry);
    machine.run(100);

    const auto &records = tracer.records();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].pc, kEntry);
    EXPECT_EQ(records[2].inst.op, Op::Add);
    EXPECT_EQ(records[3].inst.op, Op::Ebreak);

    const auto lines = tracer.format();
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_NE(lines[2].find("add a4, a2, a3"), std::string::npos)
        << lines[2];

    // The ring keeps only the last N.
    tracer.clear();
    machine.resetCpu(kEntry);
    machine.run(100);
    machine.clearHalt();
    machine.resetCpu(kEntry);
    machine.run(100);
    EXPECT_EQ(tracer.records().size(), 8u);
}

TEST(SystemTest, StatsSnapshotAndReset)
{
    Machine machine(smallConfig());
    Assembler a(kEntry);
    a.li(T0, static_cast<int32_t>(kEntry + 0x2000));
    a.csetaddr(A2, A0, T0);
    a.sw(Zero, A2, 0);
    a.lw(A3, A2, 0);
    a.csc(A0, A2, 8);
    a.clc(A4, A2, 8);
    a.ebreak();
    machine.loadProgram(a.finish(), kEntry);
    machine.resetCpu(kEntry);
    machine.run(100);

    EXPECT_EQ(machine.loads.value(), 1u);
    EXPECT_EQ(machine.stores.value(), 1u);
    EXPECT_EQ(machine.capLoads.value(), 1u);
    EXPECT_EQ(machine.capStores.value(), 1u);
    EXPECT_GE(machine.instructions(), 7u);
}

} // namespace
} // namespace cheriot::sim
