/**
 * @file
 * Restore paths against malformed input: streams cut short, counts
 * and lengths far past the bytes left, and images whose sections are
 * one byte short (re-sealed, so every CRC still holds). Each must be
 * refused without aborting the host, and a refused count must not
 * grow its container.
 *
 * Allocation is measured by replacing the global operator new for
 * this test binary; it only counts while a measurement is running.
 */

#include "alloc/quota.h"
#include "fault/campaign.h"
#include "isa/assembler.h"
#include "rtos/kernel.h"
#include "sim/fleet.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"
#include "util/rng.h"
#include "workloads/iot/microvm.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <new>

namespace
{

bool gCounting = false;
size_t gAllocated = 0;

} // namespace

void *
operator new(std::size_t size)
{
    if (gCounting) {
        gAllocated += size;
    }
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

// The pair must stay malloc/free on both sides (a sanitizer checks
// that allocation and release match); GCC cannot see that the new
// above is the malloc one.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace cheriot::snapshot
{
namespace
{

using cap::Capability;
using Deserialize = std::function<bool(Reader &)>;

/** Bytes allocated while @p deserialize reads @p bytes; its verdict
 * goes to @p accepted. */
size_t
allocatedBy(const Deserialize &deserialize,
            const std::vector<uint8_t> &bytes, bool *accepted)
{
    Reader r(bytes.data(), bytes.size());
    gAllocated = 0;
    gCounting = true;
    *accepted = deserialize(r);
    gCounting = false;
    return gAllocated;
}

/** A refused count may construct one default element to learn the
 * least size of an element (an ARQ peer holds two deques). */
constexpr size_t kProbeSlack = 4096;

/**
 * Every proper prefix of a valid @p stream is refused. So is every
 * prefix followed by a u32 of 0xffffffff when the result is still
 * shorter than the stream: whatever field the patch lands on, it can
 * only raise a count or length past the bytes left. The patched
 * stream may allocate no more than the bare prefix does, beyond the
 * probe element: a refused count allocates nothing for its elements.
 */
void
expectRefusesMalformed(const std::vector<uint8_t> &stream,
                       const Deserialize &deserialize, const char *what)
{
    bool accepted = false;
    allocatedBy(deserialize, stream, &accepted);
    ASSERT_TRUE(accepted) << what << ": the valid stream must restore";
    for (size_t cut = 0; cut < stream.size(); ++cut) {
        const std::vector<uint8_t> prefix(stream.begin(),
                                          stream.begin() + cut);
        std::vector<uint8_t> patched = prefix;
        patched.insert(patched.end(), 4, 0xff);
        bool prefixAccepted = false;
        bool patchedAccepted = false;
        const size_t prefixBytes =
            allocatedBy(deserialize, prefix, &prefixAccepted);
        const size_t patchedBytes =
            allocatedBy(deserialize, patched, &patchedAccepted);
        EXPECT_FALSE(prefixAccepted) << what << " cut at " << cut;
        if (cut + 4 < stream.size()) {
            EXPECT_FALSE(patchedAccepted)
                << what << " 0xffffffff at " << cut;
        }
        EXPECT_LE(patchedBytes, prefixBytes + kProbeSlack)
            << what << " 0xffffffff at " << cut;
        if (::testing::Test::HasFailure()) {
            return; // One report per stream, not one per byte.
        }
    }
}

template <class T>
std::vector<uint8_t>
bytesOf(const T &component)
{
    Writer w;
    component.serialize(w);
    return w.take();
}

/** @p image with section @p name's payload one byte short, re-sealed
 * so the section and image CRCs hold. */
SnapshotImage
cutSection(const SnapshotImage &image, const std::string &name)
{
    const SnapshotReader in(image);
    SnapshotWriter out;
    for (const std::string &section : in.sectionNames()) {
        Reader r = in.section(section);
        std::vector<uint8_t> payload(r.remaining());
        r.bytes(payload.data(), payload.size());
        if (section == name) {
            payload.pop_back();
        }
        out.beginSection(section).bytes(payload.data(), payload.size());
    }
    return out.finish();
}

/** @p image with @p patch applied to section @p name's payload,
 * re-sealed so the section and image CRCs hold. */
SnapshotImage
resealed(const SnapshotImage &image, const std::string &name,
         const std::function<void(std::vector<uint8_t> &)> &patch)
{
    const SnapshotReader in(image);
    SnapshotWriter out;
    for (const std::string &section : in.sectionNames()) {
        Reader r = in.section(section);
        std::vector<uint8_t> payload(r.remaining());
        r.bytes(payload.data(), payload.size());
        if (section == name) {
            patch(payload);
        }
        out.beginSection(section).bytes(payload.data(), payload.size());
    }
    return out.finish();
}

sim::MachineConfig
smallConfig()
{
    sim::MachineConfig config;
    config.sramSize = 256u << 10;
    config.heapOffset = 128u << 10;
    config.heapSize = 64u << 10;
    return config;
}

TEST(MalformedImage, QuotaLedgerRefusesAnImpossibleCount)
{
    // Four bytes claiming 0xffffffff entries: refused before the
    // ledger allocates anything, and the ledger keeps its entries.
    alloc::QuotaLedger ledger;
    ledger.create(4096);
    const std::vector<uint8_t> stream = {0xff, 0xff, 0xff, 0xff};
    bool accepted = true;
    const size_t allocated = allocatedBy(
        [&](Reader &r) { return ledger.deserialize(r); }, stream,
        &accepted);
    EXPECT_FALSE(accepted);
    EXPECT_EQ(allocated, 0u);
    EXPECT_EQ(ledger.count(), 1u);

    ledger.create(8192);
    ledger.create(1);
    expectRefusesMalformed(
        bytesOf(ledger), [&](Reader &r) { return ledger.deserialize(r); },
        "quota ledger");
}

TEST(MalformedImage, KernelStreamsRefuseCutsAndImpossibleCounts)
{
    // A kernel mid quota storm and mid object-capability storm: the
    // stream holds the quota ledger, chunk-owner and slack maps, the
    // object-cap entries with their children, and pending
    // revocations.
    sim::Machine machine(smallConfig());
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    rtos::Compartment &a = kernel.createCompartment("a", 1024, 512);
    rtos::Compartment &b = kernel.createCompartment("b", 1024, 512);
    rtos::Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);
    const Capability token = kernel.mintAllocatorCapability(a, 8192);
    Rng rng(0x5eed);
    std::vector<Capability> held;
    for (int n = 0; n < 40; ++n) {
        alloc::AllocResult res;
        if (rng.chance(2, 3) || held.empty()) {
            const Capability ptr =
                kernel.mallocWith(thread, token, 16 + rng.below(700), &res);
            if (ptr.tag()) {
                held.push_back(ptr);
            }
        } else {
            kernel.free(thread, held.back());
            held.pop_back();
        }
    }
    rtos::ObjectCapTable &caps = kernel.objectCaps();
    const Capability root = kernel.mintTimeCap(a, 0, 1ull << 40);
    kernel.mintMonitorCap(a, b);
    const Capability child = caps.deriveTime(root, 0, 1u << 10);
    ASSERT_TRUE(child.tag());
    caps.scheduleRevoke(child, machine.cycles() + 10'000);

    expectRefusesMalformed(
        bytesOf(kernel), [&](Reader &r) { return kernel.deserialize(r); },
        "kernel");
}

TEST(MalformedImage, NetStreamsRefuseCutsAndImpossibleCounts)
{
    // One application-tier node with no fabric: its sends stay
    // unacknowledged, so ARQ peers, flows and queued segments are
    // live when the streams are taken.
    sim::FleetConfig config;
    config.appTier = true;
    config.stack.arqWindow = 2;
    config.stack.firewall.admission = true;
    config.stack.firewall.rules.push_back(net::FirewallRule{});
    sim::FleetNode node(config, 0);
    sim::FleetTraffic traffic;
    traffic.sendPermille = 1000;
    for (uint32_t round = 0; round < 8; ++round) {
        node.runSlice(round, traffic, 4);
    }

    net::NetStack &stack = node.stack();
    expectRefusesMalformed(
        bytesOf(stack), [&](Reader &r) { return stack.deserialize(r); },
        "net stack");
    net::FlowManager &flows = *node.flowManager();
    expectRefusesMalformed(
        bytesOf(flows), [&](Reader &r) { return flows.deserialize(r); },
        "flow manager");
    net::TelemetryBroker &broker = *node.broker();
    expectRefusesMalformed(
        bytesOf(broker), [&](Reader &r) { return broker.deserialize(r); },
        "broker");
}

TEST(MalformedImage, MicroVmRefusesAnImpossibleObjectCount)
{
    workloads::MicroVm vm({});
    expectRefusesMalformed(
        bytesOf(vm), [&](Reader &r) { return vm.deserialize(r); },
        "microvm");
}

TEST(MalformedImage, EveryImageSectionCutShortIsRefused)
{
    sim::Machine source(smallConfig());
    source.idle(1234);
    const SnapshotImage machineImage = source.saveImage();
    const SnapshotReader machineSections(machineImage);
    for (const std::string &name : machineSections.sectionNames()) {
        sim::Machine target(smallConfig());
        EXPECT_FALSE(target.restoreImage(cutSection(machineImage, name)))
            << "machine section " << name;
    }
    sim::Machine target(smallConfig());
    EXPECT_TRUE(target.restoreImage(cutSection(machineImage, "")));

    sim::FleetConfig config;
    config.appTier = true;
    sim::FleetNode node(config, 1);
    for (uint32_t round = 0; round < 4; ++round) {
        node.runSlice(round, sim::FleetTraffic{}, 4);
    }
    const SnapshotImage nodeImage = node.saveImage();
    const SnapshotReader nodeSections(nodeImage);
    for (const std::string &name : nodeSections.sectionNames()) {
        EXPECT_FALSE(node.restoreImage(cutSection(nodeImage, name)))
            << "fleet node section " << name;
    }
    EXPECT_TRUE(node.restoreImage(cutSection(nodeImage, "")));
}

TEST(MalformedImage, CpuSectionWithTwoRetiredCountsIsRefused)
{
    sim::Machine source(smallConfig());
    const uint32_t entry = mem::kSramBase + 0x1000;
    isa::Assembler a(entry);
    a.addi(isa::T0, isa::Zero, 1);
    a.addi(isa::T0, isa::T0, 1);
    a.ebreak();
    source.loadProgram(a.finish(), entry);
    source.resetCpu(entry);
    source.run(16);
    ASSERT_EQ(source.instructions(), 3u);
    const SnapshotImage image = source.saveImage();

    // The cpu payload ends with the retired count's second copy and
    // five more counters; the first copy sits 17 bytes before it,
    // ahead of the halt reason, last trap and pending load register.
    for (const size_t fromEnd : {6 * 8, 6 * 8 + 17}) {
        uint64_t stored = 0;
        resealed(image, "cpu", [&](std::vector<uint8_t> &cpu) {
            Reader r(cpu.data() + cpu.size() - fromEnd, 8);
            stored = r.u64();
        });
        EXPECT_EQ(stored, 3u) << fromEnd;
        sim::Machine target(smallConfig());
        EXPECT_FALSE(target.restoreImage(
            resealed(image, "cpu", [&](std::vector<uint8_t> &cpu) {
                cpu[cpu.size() - fromEnd] ^= 1;
            })))
            << fromEnd;
    }
    sim::Machine target(smallConfig());
    EXPECT_TRUE(target.restoreImage(
        resealed(image, "cpu", [](std::vector<uint8_t> &) {})));
    EXPECT_EQ(target.instructions(), 3u);
}

TEST(MalformedImage, ReproRecordRefusesCutsAndAnImpossibleLength)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "cheriot-malformed";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "record.snap").string();

    fault::ReproRecord record;
    record.campaignSeed = 7;
    record.preFaultImage = sim::Machine(smallConfig()).saveImage();
    ASSERT_TRUE(fault::writeReproRecord(record, path));
    SnapshotImage file;
    ASSERT_TRUE(loadImageFromFile(path, &file));
    fault::ReproRecord read;
    ASSERT_TRUE(fault::readReproRecord(path, &read));
    EXPECT_EQ(read.preFaultImage.data, record.preFaultImage.data);

    for (const char *name : {"repro", "prefault"}) {
        ASSERT_TRUE(saveImageToFile(cutSection(file, name), path));
        EXPECT_FALSE(fault::readReproRecord(path, &read)) << name;
    }

    // A prefault blob claiming 0xffffffff bytes.
    SnapshotWriter out;
    Writer &w = out.beginSection("repro");
    const SnapshotReader sections(file);
    Reader repro = sections.section("repro");
    std::vector<uint8_t> payload(repro.remaining());
    repro.bytes(payload.data(), payload.size());
    w.bytes(payload.data(), payload.size());
    out.beginSection("prefault").u32(0xffffffffu);
    ASSERT_TRUE(saveImageToFile(out.finish(), path));
    bool accepted = true;
    const size_t allocated = allocatedBy(
        [&](Reader &) { return fault::readReproRecord(path, &read); }, {},
        &accepted);
    EXPECT_FALSE(accepted);
    EXPECT_LT(allocated, 1u << 20);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace cheriot::snapshot
