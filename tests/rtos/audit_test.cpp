/**
 * @file
 * Tests for the compartment audit facility (§3.1.2's auditing story):
 * the report must expose exactly which entries run with interrupts
 * disabled and verify the structural invariants of every compartment.
 */

#include "rtos/audit.h"
#include "rtos/kernel.h"
#include "sim/machine.h"

#include <gtest/gtest.h>

#include <memory>

namespace cheriot::rtos
{
namespace
{

sim::MachineConfig
config()
{
    sim::MachineConfig c;
    c.core = sim::CoreConfig::ibex();
    c.sramSize = 192u << 10;
    c.heapOffset = 128u << 10;
    c.heapSize = 64u << 10;
    return c;
}

TEST(Audit, ReportsCompartmentsAndCriticalEntries)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);

    Compartment &app = kernel.createCompartment("app");
    Compartment &driver = kernel.createCompartment("driver");
    app.addExport({"main",
                   [](CompartmentContext &, ArgVec &) {
                       return CallResult::ofInt(0);
                   },
                   /*interruptsDisabled=*/false});
    driver.addExport({"isr_config",
                      [](CompartmentContext &, ArgVec &) {
                          return CallResult::ofInt(0);
                      },
                      /*interruptsDisabled=*/true});
    driver.addExport({"read",
                      [](CompartmentContext &, ArgVec &) {
                          return CallResult::ofInt(0);
                      },
                      /*interruptsDisabled=*/false});

    const AuditReport report = auditKernel(kernel);

    // alloc + app + driver.
    EXPECT_EQ(report.compartments.size(), 3u);
    EXPECT_TRUE(report.structurallySound());

    // The §3.1.2 list: exactly one entry may run with IRQs off.
    const auto critical = report.interruptsDisabledEntries();
    ASSERT_EQ(critical.size(), 1u);
    EXPECT_EQ(critical[0].compartment, "driver");
    EXPECT_EQ(critical[0].entryPoint, "isr_config");

    const std::string text = report.toString();
    EXPECT_NE(text.find("driver.isr_config"), std::string::npos);
    EXPECT_NE(text.find("app"), std::string::npos);
}

TEST(Audit, StructuralInvariantsHoldForEveryCompartment)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::None);
    for (int i = 0; i < 5; ++i) {
        kernel.createCompartment("c" + std::to_string(i));
    }
    const AuditReport report = auditKernel(kernel);
    for (const auto &c : report.compartments) {
        EXPECT_FALSE(c.globalsStoreLocal)
            << c.name << ": globals must never bear SL (§5.2)";
        EXPECT_FALSE(c.codeWritable) << c.name << ": W^X";
        EXPECT_GT(c.codeSize, 0u);
        EXPECT_GT(c.globalsSize, 0u);
    }
    // Compartment regions must be pairwise disjoint.
    for (size_t i = 0; i < report.compartments.size(); ++i) {
        for (size_t j = i + 1; j < report.compartments.size(); ++j) {
            const auto &a = report.compartments[i];
            const auto &b = report.compartments[j];
            const bool globalsOverlap =
                a.globalsBase < b.globalsBase + b.globalsSize &&
                b.globalsBase < a.globalsBase + a.globalsSize;
            EXPECT_FALSE(globalsOverlap) << a.name << " vs " << b.name;
        }
    }
}

TEST(Audit, PolicyCheckExample)
{
    // The kind of policy a firmware integrator would enforce in CI:
    // "no third-party compartment runs with interrupts disabled".
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::None);
    Compartment &thirdParty = kernel.createCompartment("vendor_blob");
    thirdParty.addExport({"init",
                          [](CompartmentContext &, ArgVec &) {
                              return CallResult::ofInt(0);
                          },
                          false});

    const AuditReport report = auditKernel(kernel);
    for (const auto &entry : report.interruptsDisabledEntries()) {
        EXPECT_NE(entry.compartment, "vendor_blob")
            << "policy violation: vendor code with IRQs off";
    }
}

TEST(Audit, MmioImportsAppearInManifest)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    // Heap init hands the allocator compartment its revocation-bitmap
    // window; the manifest must record that authority by name.
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);

    const AuditReport report = auditKernel(kernel);
    bool found = false;
    for (const auto &c : report.compartments) {
        for (const auto &window : c.mmioImports) {
            if (window.window == "revocation-bitmap") {
                EXPECT_EQ(c.name, "alloc");
                EXPECT_TRUE(window.writable);
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
    EXPECT_NE(report.toString().find("mmio revocation-bitmap"),
              std::string::npos);
}

TEST(BootAssertions, LoaderBuiltImagesPassFinalizeBoot)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation);
    kernel.createCompartment("app");
    kernel.createThread("app", 1, 1024);

    std::string whyNot;
    EXPECT_TRUE(kernel.finalizeBoot(&whyNot)) << whyNot;
    EXPECT_TRUE(whyNot.empty());
}

TEST(BootAssertions, RejectsGlobalsWithStoreLocal)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::None);
    // The loader cannot mint this by construction; an adopted (i.e.
    // corrupted or foreign) image can. The memory root still carries
    // SL, so using it as a globals capability violates §5.2.
    kernel.adoptCompartment(std::make_unique<Compartment>(
        "evil", cap::Capability::executableRoot(),
        cap::Capability::memoryRoot()));

    std::string whyNot;
    EXPECT_FALSE(kernel.finalizeBoot(&whyNot));
    EXPECT_NE(whyNot.find("evil"), std::string::npos) << whyNot;
    EXPECT_NE(whyNot.find("Store-Local"), std::string::npos) << whyNot;
}

TEST(BootAssertions, RejectsWritableCode)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::None);
    // Writable memory used as a code capability breaks W^X.
    kernel.adoptCompartment(std::make_unique<Compartment>(
        "patchable",
        cap::Capability::memoryRoot().withPermsAnd(
            static_cast<uint16_t>(~cap::PermStoreLocal)),
        cap::Capability::memoryRoot().withPermsAnd(
            static_cast<uint16_t>(~cap::PermStoreLocal))));

    std::string whyNot;
    EXPECT_FALSE(kernel.finalizeBoot(&whyNot));
    EXPECT_NE(whyNot.find("patchable"), std::string::npos) << whyNot;
    EXPECT_NE(whyNot.find("W^X"), std::string::npos) << whyNot;
}

TEST(BootAssertions, VerifyOnLoadAcceptsCleanImages)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    kernel.createCompartment("app");
    kernel.createThread("app", 1, 1024);

    std::string whyNot;
    EXPECT_TRUE(kernel.finalizeBoot(&whyNot)) << whyNot;
}

TEST(BootAssertions, VerifyOnLoadEnforcesTheDefaultPolicy)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    // Structurally sound, but the default policy says only the
    // allocator may hold the revocation bitmap: the loader refuses.
    Compartment &vendor = kernel.createCompartment("vendor");
    // The window *name* is what the manifest audits; any authority
    // standing in for the window demonstrates the violation. Read-only
    // so it is the policy rule (not the sharing lint) that refuses.
    vendor.addMmioImport("revocation-bitmap",
                         cap::Capability::memoryRoot().withPermsAnd(
                             static_cast<uint16_t>(cap::kAllPerms &
                                                   ~cap::PermStore)));

    std::string whyNot;
    EXPECT_FALSE(kernel.finalizeBoot(&whyNot));
    EXPECT_NE(whyNot.find("revocation-bitmap"), std::string::npos)
        << whyNot;
    EXPECT_NE(whyNot.find("vendor"), std::string::npos) << whyNot;
}

TEST(BootAssertions, RejectsSharedMutableAuthorityUnconditionally)
{
    // The sharing lint is a boot assertion of the default policy: a
    // second *writable* importer of the allocator's revocation bitmap
    // is a cross-compartment data race, and the refusal names it as
    // one.
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    Compartment &vendor = kernel.createCompartment("vendor");
    vendor.addMmioImport("revocation-bitmap",
                         cap::Capability::memoryRoot());

    std::string whyNot;
    EXPECT_FALSE(kernel.finalizeBoot(&whyNot));
    EXPECT_NE(whyNot.find("revocation-bitmap"), std::string::npos)
        << whyNot;
    EXPECT_NE(whyNot.find("mutable"), std::string::npos) << whyNot;
    EXPECT_NE(whyNot.find("vendor"), std::string::npos) << whyNot;
}

TEST(Audit, EntryImportsAppearInManifest)
{
    sim::Machine machine(config());
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::None);
    Compartment &app = kernel.createCompartment("app");
    Compartment &driver = kernel.createCompartment("driver");
    driver.addExport({"read",
                      [](CompartmentContext &, ArgVec &) {
                          return CallResult::ofInt(0);
                      },
                      /*interruptsDisabled=*/false});
    app.addEntryImport(driver, "read");

    const AuditReport report = auditKernel(kernel);
    bool found = false;
    for (const auto &c : report.compartments) {
        for (const auto &call : c.entryImports) {
            if (c.name == "app") {
                EXPECT_EQ(call.target, "driver");
                EXPECT_EQ(call.entry, "read");
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
    EXPECT_NE(report.toString().find("calls driver.read"),
              std::string::npos);
}

} // namespace
} // namespace cheriot::rtos
