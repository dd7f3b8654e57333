/**
 * @file
 * Property tests for the snapshot subsystem's core invariant:
 * save → restore → save is byte-identical, for machines driven into
 * randomized states (random register/capability contents, dirty
 * revocation bitmaps, a mid-sweep background revoker, live guest
 * memory), and every corruption or mismatch is rejected up front
 * without touching the target machine.
 */

#include "isa/assembler.h"
#include "rtos/kernel.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"
#include "workloads/coremark/coremark.h"
#include "workloads/iot/iot_app.h"

#include <gtest/gtest.h>

namespace cheriot::snapshot
{
namespace
{

using cap::Capability;
using namespace cheriot::isa;

constexpr uint32_t kEntry = mem::kSramBase + 0x1000;

sim::MachineConfig
smallConfig(sim::CoreConfig core = sim::CoreConfig::ibex())
{
    sim::MachineConfig config;
    config.core = core;
    config.sramSize = 256u << 10;
    config.heapOffset = 128u << 10;
    config.heapSize = 64u << 10;
    return config;
}

/**
 * Drive @p machine into a pseudo-random but architecturally valid
 * state: scribbled integer registers, capabilities derived from the
 * memory root parked in registers and stored to tagged memory, plain
 * data stores, a partially painted revocation bitmap, and the
 * background revoker caught mid-sweep with work in flight.
 */
void
randomizeMachineState(sim::Machine &machine, uint64_t seed)
{
    Rng rng(seed);
    machine.resetCpu(kEntry);
    const Capability root = machine.readReg(A0);
    ASSERT_TRUE(root.tag());

    // Registers: a mix of integers and derived capabilities (c0 is
    // hard-wired null; leave a0 holding the root as an authority).
    for (unsigned reg = 1; reg < isa::kNumRegs; ++reg) {
        if (reg == A0) {
            continue;
        }
        if (rng.chance(1, 2)) {
            machine.writeRegInt(reg, rng.next());
        } else {
            const uint32_t addr =
                machine.heapBase() + rng.below(machine.heapEnd() -
                                               machine.heapBase());
            machine.writeReg(reg, root.withAddress(addr));
        }
    }

    // Tagged memory: capabilities at aligned heap addresses, plain
    // words elsewhere (some overlapping granules so micro-tags end up
    // in mixed states).
    for (int n = 0; n < 64; ++n) {
        const uint32_t span = machine.heapEnd() - machine.heapBase() - 8;
        const uint32_t addr = machine.heapBase() + (rng.below(span) & ~7u);
        if (rng.chance(2, 3)) {
            ASSERT_EQ(machine.storeCap(root, addr,
                                       root.withAddress(addr), false),
                      sim::TrapCause::None);
        } else {
            ASSERT_EQ(machine.storeData(root, addr, 4, rng.next(), false),
                      sim::TrapCause::None);
        }
    }

    // Revocation bitmap: paint a handful of random granule ranges.
    for (int n = 0; n < 8; ++n) {
        const uint32_t base =
            machine.heapBase() +
            rng.below(machine.heapEnd() - machine.heapBase() - 256);
        machine.revocationBitmap().setRange(base, rng.range(8, 256));
    }

    // Background revoker: program a window over the heap and kick it,
    // then advance a few cycles so the snapshot catches the sweep with
    // its pipeline slots loaded and the epoch odd.
    machine.backgroundRevoker().write32(0x0, machine.heapBase());
    machine.backgroundRevoker().write32(0x4, machine.heapEnd());
    machine.backgroundRevoker().write32(0xC, 1);
    machine.idle(rng.range(4, 64));
    if ((rng.next() & 1) != 0) {
        EXPECT_TRUE(machine.backgroundRevoker().sweeping());
    }

    // Skew the clock and counters.
    machine.advance(rng.range(1, 10'000), rng.below(16));
}

TEST(SnapshotRoundtrip, SaveRestoreSaveIsByteIdenticalUnderFuzz)
{
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        const sim::CoreConfig core = (seed % 2 == 0)
                                         ? sim::CoreConfig::ibex()
                                         : sim::CoreConfig::flute();
        sim::Machine machine(smallConfig(core));
        randomizeMachineState(machine, seed * 0x9e3779b9u);

        const SnapshotImage first = machine.saveImage();
        ASSERT_FALSE(first.empty());

        sim::Machine clone(smallConfig(core));
        ASSERT_TRUE(clone.restoreImage(first)) << "seed " << seed;

        const SnapshotImage second = clone.saveImage();
        EXPECT_EQ(first.data, second.data) << "seed " << seed;
        EXPECT_EQ(machine.stateDigest(), clone.stateDigest());
        EXPECT_EQ(machine.cycles(), clone.cycles());
        EXPECT_EQ(machine.instructions(), clone.instructions());
    }
}

TEST(SnapshotRoundtrip, RestoreRewindsAMachineThatRanAhead)
{
    sim::Machine machine(smallConfig());
    randomizeMachineState(machine, 0xfeedface);
    const SnapshotImage image = machine.saveImage();
    const uint32_t digest = machine.stateDigest();

    // Run ahead: execute a real program, dirtying registers, memory
    // and the clock.
    Assembler assembler(kEntry);
    assembler.li(A2, 3);
    assembler.li(A3, 4);
    assembler.add(A2, A2, A3);
    assembler.ebreak();
    machine.loadProgram(assembler.finish(), kEntry);
    machine.resetCpu(kEntry);
    machine.run(1u << 16);
    ASSERT_NE(machine.stateDigest(), digest);

    // Restore must be the exact inverse, including the halt latch.
    ASSERT_TRUE(machine.restoreImage(image));
    EXPECT_EQ(machine.stateDigest(), digest);
    EXPECT_FALSE(machine.halted());
    EXPECT_EQ(machine.saveImage().data, image.data);
}

TEST(SnapshotRoundtrip, LiveKernelStateRoundTrips)
{
    // Boot a kernel (threads, compartments, heap) so the machine
    // carries live RTOS state, then round-trip the machine image and
    // the kernel's dynamic-state section together, the way the IoT
    // checkpoint path does.
    sim::Machine machine(smallConfig());
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    rtos::Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);
    const Capability obj = kernel.malloc(thread, 128);
    ASSERT_TRUE(obj.tag());
    kernel.guest().storeWord(obj, obj.base(), 0x600dbeef);

    const SnapshotImage machineImage = machine.saveImage();
    Writer kernelState;
    kernel.serialize(kernelState);

    // Dirty everything, then restore both layers.
    machine.idle(5'000);
    kernel.guest().storeWord(obj, obj.base(), 0);
    ASSERT_TRUE(machine.restoreImage(machineImage));
    Reader kernelReader(kernelState.buffer().data(),
                        kernelState.buffer().size());
    ASSERT_TRUE(kernel.deserialize(kernelReader));
    EXPECT_TRUE(kernelReader.exhausted());

    // Re-serializing yields the identical byte stream, and the
    // restored heap object is intact. (The machine image is compared
    // first: loadWord charges simulated cycles.)
    Writer again;
    kernel.serialize(again);
    EXPECT_EQ(kernelState.buffer(), again.buffer());
    EXPECT_EQ(machine.saveImage().data, machineImage.data);
    EXPECT_EQ(kernel.guest().loadWord(obj, obj.base()), 0x600dbeefu);
}

TEST(SnapshotRoundtrip, QuotaAndTokenStateRoundTrips)
{
    // The quota ledger, the allocator-capability token library and
    // the overload counters are serialized kernel state; a snapshot
    // taken mid-overload (quarantined bytes still charged, a denial
    // on the books) must restore to the identical ledger, and the
    // sealed token minted before the snapshot must keep working
    // against the restored heap.
    sim::Machine machine(smallConfig());
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    rtos::Compartment &app = kernel.createCompartment("app", 1024, 512);
    rtos::Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);
    const Capability token = kernel.mintAllocatorCapability(app, 8192);
    ASSERT_TRUE(token.tag());

    alloc::AllocResult res = alloc::AllocResult::Ok;
    const Capability live = kernel.mallocWith(thread, token, 256, &res);
    ASSERT_TRUE(live.tag());
    // A denial while quarantine is empty: fast, typed, and counted.
    EXPECT_FALSE(kernel.mallocWith(thread, token, 16384, &res).tag());
    ASSERT_EQ(res, alloc::AllocResult::QuotaExceeded);
    // And still-charged quarantined bytes at snapshot time.
    const Capability doomed = kernel.mallocWith(thread, token, 512, &res);
    ASSERT_TRUE(doomed.tag());
    ASSERT_EQ(kernel.free(thread, doomed),
              alloc::HeapAllocator::FreeResult::Ok);
    ASSERT_GT(kernel.allocator().quarantinedBytes(), 0u);

    const alloc::QuotaLedger::Entry *entry =
        kernel.allocator().quota().entry(1);
    ASSERT_NE(entry, nullptr);
    const alloc::QuotaLedger::Entry saved = *entry;
    EXPECT_GE(saved.used, 768u);
    EXPECT_GE(saved.denials, 1u);

    const SnapshotImage machineImage = machine.saveImage();
    Writer kernelState;
    kernel.serialize(kernelState);

    // Dirty both layers: more metered churn, revocation progress.
    for (int n = 0; n < 4; ++n) {
        const Capability extra =
            kernel.mallocWith(thread, token, 64, &res);
        if (extra.tag()) {
            ASSERT_EQ(kernel.free(thread, extra),
                      alloc::HeapAllocator::FreeResult::Ok);
        }
    }
    kernel.allocator().synchronise();
    machine.idle(3'000);

    ASSERT_TRUE(machine.restoreImage(machineImage));
    Reader kernelReader(kernelState.buffer().data(),
                        kernelState.buffer().size());
    ASSERT_TRUE(kernel.deserialize(kernelReader));
    EXPECT_TRUE(kernelReader.exhausted());

    Writer again;
    kernel.serialize(again);
    EXPECT_EQ(kernelState.buffer(), again.buffer());
    EXPECT_EQ(machine.saveImage().data, machineImage.data);

    entry = kernel.allocator().quota().entry(1);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->used, saved.used);
    EXPECT_EQ(entry->peak, saved.peak);
    EXPECT_EQ(entry->denials, saved.denials);
    EXPECT_EQ(entry->limit, saved.limit);

    // The pre-snapshot sealed token still unseals and meters against
    // the restored ledger (functional check last: it runs the clock).
    const Capability after = kernel.mallocWith(thread, token, 64, &res);
    ASSERT_TRUE(after.tag());
    EXPECT_EQ(res, alloc::AllocResult::Ok);
    EXPECT_GT(entry->used, saved.used);
}

TEST(SnapshotRoundtrip, QuotaActivityFuzzRoundTripsByteIdentical)
{
    // Randomized metered malloc/free interleavings — including
    // natural quota denials, backpressure waits and watchdog
    // bookkeeping — snapshotted at an arbitrary point: restoring and
    // re-serializing must be byte-identical in every run.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        sim::Machine machine(smallConfig());
        rtos::Kernel kernel(machine);
        kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
        rtos::Compartment &a = kernel.createCompartment("a", 1024, 512);
        rtos::Compartment &b = kernel.createCompartment("b", 1024, 512);
        rtos::Thread &thread = kernel.createThread("main", 1, 4096);
        kernel.activate(thread);
        const Capability tokens[2] = {
            kernel.mintAllocatorCapability(a, 6u << 10),
            kernel.mintAllocatorCapability(b, 12u << 10),
        };
        ASSERT_TRUE(tokens[0].tag());
        ASSERT_TRUE(tokens[1].tag());

        Rng rng(seed * 0x51ed5eed);
        std::vector<Capability> held;
        const auto churn = [&](int rounds) {
            for (int n = 0; n < rounds; ++n) {
                if (rng.chance(2, 3) || held.empty()) {
                    alloc::AllocResult res;
                    const Capability ptr = kernel.mallocWith(
                        thread, tokens[rng.below(2)],
                        16 + rng.below(700), &res);
                    if (ptr.tag()) {
                        held.push_back(ptr);
                    }
                } else {
                    const uint32_t pick = rng.below(
                        static_cast<uint32_t>(held.size()));
                    EXPECT_EQ(kernel.free(thread, held[pick]),
                              alloc::HeapAllocator::FreeResult::Ok);
                    held[pick] = held.back();
                    held.pop_back();
                }
            }
        };
        churn(40);

        const SnapshotImage machineImage = machine.saveImage();
        Writer kernelState;
        kernel.serialize(kernelState);

        churn(20);
        machine.idle(rng.range(100, 2'000));

        ASSERT_TRUE(machine.restoreImage(machineImage)) << "seed "
                                                        << seed;
        Reader kernelReader(kernelState.buffer().data(),
                            kernelState.buffer().size());
        ASSERT_TRUE(kernel.deserialize(kernelReader)) << "seed " << seed;
        EXPECT_TRUE(kernelReader.exhausted());

        Writer again;
        kernel.serialize(again);
        EXPECT_EQ(kernelState.buffer(), again.buffer())
            << "seed " << seed;
        EXPECT_EQ(machine.saveImage().data, machineImage.data)
            << "seed " << seed;
    }
}

TEST(SnapshotRoundtrip, ObjectCapStormRoundTripsByteIdentical)
{
    // A checkpoint taken *mid revocation storm* — a derivation forest
    // with transfers applied, some subtrees already revoked, and
    // scheduled revocations still pending delivery — must restore to
    // the identical table: same tree links, same pending deadlines,
    // same counters, byte-for-byte. Afterwards the pending revocation
    // must still deliver on the restored clock, and live/stale tokens
    // must keep their verdicts.
    using rtos::CapResult;
    using rtos::ObjectCapTable;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        sim::Machine machine(smallConfig());
        rtos::Kernel kernel(machine);
        kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
        rtos::Compartment &a = kernel.createCompartment("a");
        rtos::Compartment &b = kernel.createCompartment("b");
        rtos::Thread &thread = kernel.createThread("main", 1, 4096);
        kernel.activate(thread);

        ObjectCapTable &caps = kernel.objectCaps();
        Rng rng(seed * 0x0bedc0de);
        std::vector<Capability> tokens;
        tokens.push_back(kernel.mintTimeCap(a, 0, 1ull << 40));
        tokens.push_back(kernel.mintMonitorCap(a, b));
        ASSERT_TRUE(tokens[0].tag());
        for (int op = 0; op < 40; ++op) {
            const Capability &pick = tokens[rng.below(
                static_cast<uint32_t>(tokens.size()))];
            switch (rng.below(4)) {
              case 0:
              case 1: {
                const uint32_t id = caps.idOf(pick);
                if (id == ObjectCapTable::kNoParent ||
                    caps.typeAt(id) != rtos::ObjectCapType::Time) {
                    break;
                }
                uint64_t begin = 0, mark = 0, end = 0;
                caps.timeBoundsAt(id, &begin, &mark, &end);
                if (mark + 2 >= end) {
                    break;
                }
                const Capability kid = caps.deriveTime(
                    pick, mark, mark + 1 + rng.below(1u << 10));
                if (kid.tag()) {
                    tokens.push_back(kid);
                }
                break;
              }
              case 2:
                caps.transfer(pick, rng.below(2));
                break;
              case 3:
                // Half immediate revokes, half scheduled into the
                // future so the snapshot lands mid-storm with
                // deliveries pending.
                if (rng.chance(1, 2)) {
                    EXPECT_EQ(caps.revoke(pick), CapResult::Ok);
                } else {
                    caps.scheduleRevoke(
                        pick,
                        machine.cycles() + 5'000 + rng.below(20'000));
                }
                break;
            }
        }
        // At least one revocation must still be pending at the
        // snapshot point for the case to mean anything.
        caps.scheduleRevoke(tokens[0], machine.cycles() + 10'000);

        const SnapshotImage machineImage = machine.saveImage();
        Writer kernelState;
        kernel.serialize(kernelState);
        const uint64_t revocationsAtSave = caps.revocations.value();

        // Dirty both layers: let pending revocations deliver, derive
        // more, reclaim the casualties, run the clock.
        machine.idle(40'000);
        (void)caps.checkTime(tokens[0], 0);
        caps.reclaim();

        ASSERT_TRUE(machine.restoreImage(machineImage)) << "seed "
                                                        << seed;
        Reader kernelReader(kernelState.buffer().data(),
                            kernelState.buffer().size());
        ASSERT_TRUE(kernel.deserialize(kernelReader)) << "seed " << seed;
        EXPECT_TRUE(kernelReader.exhausted());

        Writer again;
        kernel.serialize(again);
        EXPECT_EQ(kernelState.buffer(), again.buffer())
            << "seed " << seed;
        EXPECT_EQ(machine.saveImage().data, machineImage.data)
            << "seed " << seed;
        EXPECT_EQ(caps.revocations.value(), revocationsAtSave);

        // The restored storm resumes: the pending root revocation
        // delivers on the restored clock at the next table access.
        machine.idle(40'000);
        EXPECT_EQ(caps.checkTime(tokens[0], 0), CapResult::Revoked)
            << "seed " << seed;
        const uint32_t rootId = caps.idOf(tokens[0]);
        ASSERT_NE(rootId, ObjectCapTable::kNoParent);
        EXPECT_TRUE(caps.subtreeDead(rootId)) << "seed " << seed;
    }
}

TEST(SnapshotRoundtrip, EveryFlippedBitIsDetected)
{
    sim::Machine machine(smallConfig());
    randomizeMachineState(machine, 0x5eed);
    const SnapshotImage good = machine.saveImage();
    const SnapshotImage pristine = good;

    // Sample corruption positions across the whole image (header,
    // manifest, payloads, trailing CRC); each must fail validation and
    // leave the target machine untouched.
    sim::Machine victim(smallConfig());
    ASSERT_TRUE(victim.restoreImage(good));
    const uint32_t victimDigest = victim.stateDigest();

    Rng rng(0xc0ffee);
    for (int n = 0; n < 32; ++n) {
        SnapshotImage corrupt = pristine;
        const size_t pos = rng.below(
            static_cast<uint32_t>(corrupt.data.size()));
        corrupt.data[pos] ^= static_cast<uint8_t>(1u << rng.below(8));

        const SnapshotReader reader(corrupt);
        EXPECT_FALSE(reader.valid()) << "byte " << pos;
        EXPECT_FALSE(reader.error().empty());
        EXPECT_FALSE(victim.restoreImage(corrupt));
        EXPECT_EQ(victim.stateDigest(), victimDigest)
            << "rejected restore must not mutate the machine";
    }

    // Truncation is equally fatal.
    SnapshotImage truncated = pristine;
    truncated.data.resize(truncated.data.size() / 2);
    EXPECT_FALSE(SnapshotReader(truncated).valid());
    EXPECT_FALSE(victim.restoreImage(truncated));
}

TEST(SnapshotRoundtrip, ConfigMismatchIsRefused)
{
    sim::Machine source(smallConfig(sim::CoreConfig::ibex()));
    randomizeMachineState(source, 0x1234);
    const SnapshotImage image = source.saveImage();

    // Different core flavour.
    sim::Machine wrongCore(smallConfig(sim::CoreConfig::flute()));
    EXPECT_FALSE(wrongCore.restoreImage(image));

    // Different memory geometry.
    sim::MachineConfig bigger = smallConfig();
    bigger.sramSize = 512u << 10;
    bigger.heapOffset = 256u << 10;
    sim::Machine wrongGeometry(bigger);
    EXPECT_FALSE(wrongGeometry.restoreImage(image));

    // The matching machine still accepts it.
    sim::Machine right(smallConfig(sim::CoreConfig::ibex()));
    EXPECT_TRUE(right.restoreImage(image));
}

TEST(SnapshotRoundtrip, ManifestNamesEveryComponent)
{
    sim::Machine machine(smallConfig());
    const SnapshotReader reader(machine.saveImage());
    ASSERT_TRUE(reader.valid());
    for (const char *name : {"config", "cpu", "sram", "bitmap",
                             "revoker", "filter", "console", "timer",
                             "bus"}) {
        EXPECT_TRUE(reader.hasSection(name)) << name;
    }
    // Missing sections latch the reader rather than trapping.
    Reader missing = reader.section("no-such-component");
    missing.u32();
    EXPECT_FALSE(missing.ok());
}

/** stateDigest() joins section CRCs instead of assembling the image;
 * it must equal the digest of the image saveImage() assembles. */
TEST(SnapshotDigest, OnePassDigestEqualsTheImageDigest)
{
    sim::Machine fresh(smallConfig());
    EXPECT_EQ(fresh.stateDigest(), fresh.saveImage().digest());

    workloads::CoreMarkConfig config;
    config.iterations = 1;
    workloads::CoreMarkBuilder builder(config);
    sim::Machine coremark(smallConfig());
    coremark.loadProgram(builder.build(), builder.entry());
    coremark.resetCpu(builder.entry());
    ASSERT_EQ(coremark.run(uint64_t{1} << 26).reason,
              sim::HaltReason::ConsoleExit);
    EXPECT_EQ(coremark.stateDigest(), coremark.saveImage().digest());

    // The IoT app's last debug poll sees its end state.
    workloads::IotAppConfig iot;
    iot.simSeconds = 0.3;
    uint32_t onePass = 0;
    uint32_t assembled = 1;
    iot.debugPoll = [&](sim::Machine &machine, rtos::Kernel &) {
        onePass = machine.stateDigest();
        assembled = machine.saveImage().digest();
    };
    const workloads::IotAppResult result = workloads::runIotApp(iot);
    EXPECT_EQ(onePass, assembled);
    EXPECT_EQ(result.finalDigest, assembled);
}

} // namespace
} // namespace cheriot::snapshot
