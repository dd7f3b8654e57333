/**
 * @file
 * c0 is hard-wired null. Machine::readReg hands out a reference into
 * the register file, c0 included, so nothing may store into regs_[0]:
 * not an instruction that names c0 as its destination, not a debugger
 * register write, not a snapshot restore.
 */

#include "debug/gdb_server.h"
#include "debug/rsp.h"
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
constexpr uint32_t kBuffer = mem::kSramBase + 0x3000;

MachineConfig
smallConfig()
{
    MachineConfig config;
    config.core = CoreConfig::ibex();
    config.sramSize = 64u << 10;
    config.heapOffset = 32u << 10;
    config.heapSize = 16u << 10;
    return config;
}

void
expectNullC0(const Machine &machine)
{
    const Capability &c0 = machine.readReg(Zero);
    EXPECT_FALSE(c0.tag());
    EXPECT_EQ(c0.toBits(), 0u);
    EXPECT_EQ(c0.base(), 0u);
    EXPECT_EQ(c0.top(), 0u);
    EXPECT_EQ(c0.perms(), cap::PermSet());
    EXPECT_EQ(machine.readRegInt(Zero), 0u);
}

/** Run @p body to its ebreak, checking c0 after every step. */
void
runCheckingC0(const std::function<void(Assembler &)> &body)
{
    Machine machine(smallConfig());
    Assembler assembler(kEntry);
    body(assembler);
    assembler.ebreak();
    machine.loadProgram(assembler.finish(), kEntry);
    machine.resetCpu(kEntry);
    while (!machine.halted()) {
        machine.step();
        expectNullC0(machine);
    }
    EXPECT_EQ(machine.haltReason(), HaltReason::Breakpoint);
    EXPECT_EQ(machine.trapCount(), 0u);
}

TEST(HardwiredZero, CapabilityResultsIntoC0AreDiscarded)
{
    runCheckingC0([](Assembler &a) {
        // a0 holds the memory root at reset.
        a.cmove(Zero, A0);
        a.li(T0, static_cast<int32_t>(kBuffer));
        a.csetaddr(A2, A0, T0);
        a.csc(A0, A2, 0);
        a.clc(Zero, A2, 0);
        a.auipcc(Zero, 0);
        a.clc(A3, A2, 0);
        a.cmove(Zero, A3);
    });
}

TEST(HardwiredZero, DebuggerRegisterWriteToC0IsIgnored)
{
    Machine machine(smallConfig());
    machine.resetCpu(kEntry);
    debug::GdbServer server(machine);
    const Capability root = machine.readReg(A0);
    ASSERT_TRUE(root.tag());
    EXPECT_EQ(server.handlePacket("P0=" + debug::hexLe(root.toBits(), 8)),
              "OK");
    expectNullC0(machine);
    EXPECT_EQ(server.handlePacket("p0"), debug::hexLe(0, 8));
}

TEST(HardwiredZero, SnapshotRestoreLeavesC0Null)
{
    Machine original(smallConfig());
    original.resetCpu(kEntry);
    original.writeReg(Zero, Capability::memoryRoot());
    original.writeReg(A2, Capability::memoryRoot().withAddress(kBuffer));
    const snapshot::SnapshotImage image = original.saveImage();

    Machine restored(smallConfig());
    restored.resetCpu(kEntry + 0x100);
    ASSERT_TRUE(restored.restoreImage(image));
    expectNullC0(restored);
    EXPECT_EQ(restored.readReg(A2), original.readReg(A2));
    EXPECT_EQ(restored.readReg(A2).base(), 0u);
    EXPECT_EQ(restored.stateDigest(), original.stateDigest());
}

} // namespace
} // namespace cheriot::sim
