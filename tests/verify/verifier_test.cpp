/**
 * @file
 * The static capability-flow analyzer: detection of each violation
 * class on hand-built guest images, the zero-false-positive
 * discipline on correct code (joins, loops, unknown values), and the
 * analysis budget.
 */

#include "verify/verifier.h"

#include "cap/permissions.h"
#include "cap/sealing.h"
#include "isa/assembler.h"
#include "mem/memory_map.h"

#include <gtest/gtest.h>

#include <functional>

namespace cheriot::verify
{
namespace
{

using namespace cheriot::isa;

constexpr uint32_t kBase = mem::kSramBase + 0x1000;

Report
analyze(const std::function<void(Assembler &)> &body,
        const AnalyzerOptions &options = {})
{
    Assembler assembler(kBase);
    body(assembler);
    ProgramImage image;
    image.name = "test";
    image.base = kBase;
    image.entry = kBase;
    image.words = assembler.finish();
    return analyzeProgram(image, options);
}

TEST(Verifier, CleanStraightLineProgramHasNoFindings)
{
    const Report report = analyze([](Assembler &a) {
        a.li(A2, 21);
        a.slli(A2, A2, 1);
        a.csetboundsimm(A3, A0, 64);
        a.sw(A2, A3, 0);
        a.lw(A4, A3, 0);
        a.ebreak();
    });
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_GT(report.statesExplored, 0u);
    EXPECT_GT(report.instructionsAnalyzed, 0u);
    EXPECT_FALSE(report.budgetExhausted);
}

TEST(Verifier, DetectsBoundsWidening)
{
    uint32_t badPc = 0;
    const Report report = analyze([&](Assembler &a) {
        a.csetboundsimm(A2, A0, 16);
        a.li(A3, 64);
        badPc = a.pc();
        a.csetbounds(A4, A2, A3); // [0,+64) out of a [0,+16) slice.
        a.ebreak();
    });
    ASSERT_TRUE(report.hasClass(FindingClass::Monotonicity))
        << report.toString();
    bool found = false;
    for (const auto &f : report.findings) {
        if (f.cls == FindingClass::Monotonicity && f.pc == badPc) {
            found = true;
            EXPECT_FALSE(f.message.empty());
            EXPECT_FALSE(f.latticeState.empty());
        }
    }
    EXPECT_TRUE(found) << report.toString();
}

TEST(Verifier, BoundsNarrowingIsMonotoneAndClean)
{
    const Report report = analyze([](Assembler &a) {
        a.csetboundsimm(A2, A0, 64);
        a.li(A3, 16);
        a.csetbounds(A4, A2, A3); // Narrowing: allowed.
        a.sw(Zero, A4, 0);
        a.ebreak();
    });
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(Verifier, DetectsStoreLocalLeak)
{
    uint32_t badPc = 0;
    const Report report = analyze([&](Assembler &a) {
        a.li(T1, cap::kAllPerms & ~cap::PermGlobal);
        a.candperm(A2, A0, T1); // Definitely local.
        a.li(T1, cap::kAllPerms & ~cap::PermStoreLocal);
        a.candperm(A3, A0, T1); // Authority without SL.
        badPc = a.pc();
        a.csc(A2, A3, 0);
        a.ebreak();
    });
    ASSERT_TRUE(report.hasClass(FindingClass::StackLeak))
        << report.toString();
    EXPECT_EQ(report.findings[0].pc, badPc);
}

TEST(Verifier, DetectsUseOfUntaggedAuthority)
{
    const Report report = analyze([](Assembler &a) {
        a.ccleartag(A2, A0);
        a.lw(A3, A2, 0); // Loading through a definitely-untagged cap.
        a.ebreak();
    });
    EXPECT_TRUE(report.hasClass(FindingClass::Monotonicity))
        << report.toString();
}

TEST(Verifier, EachAccessTrapCauseIsItsOwnFinding)
{
    // Each cause the shared access rule (isa::accessCause, then
    // isa::capStoreCause for csc) can raise, through an exact
    // authority unless noted, and the one finding it maps to.
    struct Case
    {
        const char *name;
        std::function<void(Assembler &, uint32_t &)> body;
        FindingClass cls;
        std::string message;
    };
    const auto shed = [](Assembler &a, uint16_t perm) {
        a.li(T1, cap::kAllPerms & ~perm);
        a.candperm(A2, A0, T1);
    };
    const Case cases[] = {
        {"untagged",
         [](Assembler &a, uint32_t &pc) {
             a.ccleartag(A2, A0);
             pc = a.pc();
             a.sw(Zero, A2, 0);
         },
         FindingClass::Monotonicity,
         "store through untagged capability (authority was destroyed "
         "by a non-monotone manipulation)"},
        {"untagged, not exact",
         [&](Assembler &a, uint32_t &pc) {
             shed(a, cap::PermMemCap);
             a.clc(A3, A2, 0); // Arrives untagged, value unknown.
             pc = a.pc();
             a.lw(A4, A3, 0);
         },
         FindingClass::Monotonicity,
         "load through untagged capability (authority was destroyed "
         "by a non-monotone manipulation)"},
        {"sealed",
         [](Assembler &a, uint32_t &pc) {
             a.li(T0, cap::kOtypeAllocator);
             a.csetaddr(A2, A1, T0);
             a.cseal(A3, A0, A2);
             pc = a.pc();
             a.lw(A4, A3, 0);
         },
         FindingClass::Sealing, "load through sealed capability"},
        {"no load permission",
         [&](Assembler &a, uint32_t &pc) {
             shed(a, cap::PermLoad);
             pc = a.pc();
             a.lw(A3, A2, 0);
         },
         FindingClass::Monotonicity, "load authority lacks LD permission"},
        {"no store permission",
         [&](Assembler &a, uint32_t &pc) {
             shed(a, cap::PermStore);
             pc = a.pc();
             a.sw(Zero, A2, 0);
         },
         FindingClass::Monotonicity, "store authority lacks SD permission"},
        {"out of bounds",
         [](Assembler &a, uint32_t &pc) {
             a.csetboundsimm(A2, A0, 16);
             pc = a.pc();
             a.lw(A3, A2, 16);
         },
         FindingClass::Monotonicity,
         "out-of-bounds load: [00000010,+4) outside [00000000,00000010)"},
        {"misaligned",
         [](Assembler &a, uint32_t &pc) {
             pc = a.pc();
             a.sh(Zero, A0, 3);
         },
         FindingClass::Monotonicity, "misaligned store"},
        {"capability store without MC",
         [&](Assembler &a, uint32_t &pc) {
             shed(a, cap::PermMemCap);
             pc = a.pc();
             a.csc(A0, A2, 0);
         },
         FindingClass::Monotonicity,
         "capability store through data-only (no MC) authority"},
        {"local capability store without SL",
         [&](Assembler &a, uint32_t &pc) {
             shed(a, cap::PermStoreLocal);
             a.li(T1, cap::kAllPerms & ~cap::PermGlobal);
             a.candperm(A3, A0, T1);
             pc = a.pc();
             a.csc(A3, A2, 0);
         },
         FindingClass::StackLeak,
         "local (stack-derived) capability stored through authority "
         "without Store-Local: the §5.2 stack-capability leak"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        uint32_t pc = 0;
        const Report report = analyze([&](Assembler &a) {
            c.body(a, pc);
            a.ebreak();
        });
        ASSERT_EQ(report.findings.size(), 1u) << report.toString();
        EXPECT_EQ(report.findings[0].cls, c.cls);
        EXPECT_EQ(report.findings[0].pc, pc);
        EXPECT_EQ(report.findings[0].message, c.message);
    }
}

TEST(Verifier, DetectsMissingRegisterClearAtSentryCall)
{
    uint32_t badPc = 0;
    const Report report = analyze([&](Assembler &a) {
        a.auipcc(A2, 0);
        a.csealentry(A2, A2,
                     static_cast<int32_t>(cap::InterruptPosture::Inherit));
        a.cmove(S0, A0); // Callee-visible leak.
        badPc = a.pc();
        a.jalr(Ra, A2, 0);
        a.ebreak();
    });
    ASSERT_TRUE(report.hasClass(FindingClass::SwitcherAbi))
        << report.toString();
    EXPECT_EQ(report.findings[0].pc, badPc);
    // The diagnostic must name the leaking register.
    EXPECT_NE(report.findings[0].message.find("s0"), std::string::npos)
        << report.findings[0].message;
}

TEST(Verifier, ArgumentRegistersMayCarryCapsAcrossCalls)
{
    const Report report = analyze([](Assembler &a) {
        a.auipcc(A2, 0);
        a.csealentry(A2, A2,
                     static_cast<int32_t>(cap::InterruptPosture::Inherit));
        a.cmove(A3, A0); // a0-a5 are the argument registers: allowed.
        a.jalr(Ra, A2, 0);
        a.ebreak();
    });
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(Verifier, DetectsJumpThroughSealedNonSentry)
{
    const Report report = analyze([](Assembler &a) {
        a.li(T0, cap::kOtypeAllocator);
        a.csetaddr(A2, A1, T0);
        a.cseal(A3, A0, A2);
        a.jalr(Zero, A3, 0);
        a.ebreak();
    });
    EXPECT_TRUE(report.hasClass(FindingClass::Sealing))
        << report.toString();
}

TEST(Verifier, SealUnsealWithMatchingAuthorityIsClean)
{
    const Report report = analyze([](Assembler &a) {
        a.li(T0, cap::kOtypeAllocator);
        a.csetaddr(A2, A1, T0);
        a.cseal(A3, A0, A2);
        a.cunseal(A4, A3, A2);
        a.sw(Zero, A4, 0);
        a.ebreak();
    });
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(Verifier, DetectsSealWithoutSealingAuthority)
{
    const Report report = analyze([](Assembler &a) {
        // The memory root has no SE permission: sealing with it must
        // fail, and the analyzer knows both operands exactly.
        a.li(T0, cap::kOtypeAllocator);
        a.csetaddr(A2, A0, T0);
        a.cseal(A3, A0, A2);
        a.ebreak();
    });
    EXPECT_TRUE(report.hasClass(FindingClass::Sealing))
        << report.toString();
}

TEST(Verifier, LoopWithJoinPointConvergesCleanly)
{
    const Report report = analyze([](Assembler &a) {
        a.csetboundsimm(A2, A0, 32);
        a.li(T0, 0);
        a.li(T1, 100);
        const Assembler::Label loop = a.here();
        a.sw(Zero, A2, 0);
        a.addi(T0, T0, 1);
        a.blt(T0, T1, loop);
        a.ebreak();
    });
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_FALSE(report.budgetExhausted);
    // The back edge forces at least one re-visit before the fixpoint.
    EXPECT_GT(report.statesExplored, report.instructionsAnalyzed);
}

TEST(Verifier, BranchConstantFoldingPrunesDeadPaths)
{
    // The taken path of `beq zero, zero` is the only real path; code
    // on the fall-through side must not produce findings.
    const Report report = analyze([](Assembler &a) {
        Assembler::Label ok = a.newLabel();
        a.beq(Zero, Zero, ok);
        // Dead: would otherwise be a definite violation.
        a.ccleartag(A2, A0);
        a.lw(A3, A2, 0);
        a.bind(ok);
        a.ebreak();
    });
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(Verifier, BudgetExhaustionIsReportedNotLooped)
{
    AnalyzerOptions options;
    options.maxStateUpdates = 4;
    const Report report = analyze(
        [](Assembler &a) {
            a.li(T0, 0);
            a.li(T1, 100);
            const Assembler::Label loop = a.here();
            a.addi(T0, T0, 1);
            a.blt(T0, T1, loop);
            a.ebreak();
        },
        options);
    EXPECT_TRUE(report.budgetExhausted);
    EXPECT_LE(report.statesExplored, 4u);
}

TEST(Verifier, OutOfImageJumpEndsThePathQuietly)
{
    // Jumping to unmapped code through a valid executable capability
    // is outside the image: the analyzer must stop the path, not
    // fabricate findings about code it cannot see.
    const Report report = analyze([](Assembler &a) {
        a.auipcc(A2, 0x100); // Executable, far outside the image.
        a.jalr(Zero, A2, 0);
    });
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(Verifier, ReportRendersClassCompartmentAndPc)
{
    const Report report = analyze([](Assembler &a) {
        a.ccleartag(A2, A0);
        a.lw(A3, A2, 0);
        a.ebreak();
    });
    ASSERT_FALSE(report.findings.empty());
    const std::string text = report.toString();
    EXPECT_NE(text.find("monotonicity"), std::string::npos) << text;
    EXPECT_NE(text.find("test"), std::string::npos) << text;
    char pcHex[16];
    std::snprintf(pcHex, sizeof(pcHex), "%08x", report.findings[0].pc);
    EXPECT_NE(text.find(pcHex), std::string::npos) << text;
}

TEST(Verifier, FindingsAreDeduplicatedAcrossRevisits)
{
    // The violating instruction sits inside a loop: the analyzer
    // revisits it while converging but must report it once.
    const Report report = analyze([](Assembler &a) {
        a.li(T0, 0);
        a.li(T1, 4);
        a.ccleartag(A2, A0);
        const Assembler::Label loop = a.here();
        a.lw(A3, A2, 0);
        a.addi(T0, T0, 1);
        a.blt(T0, T1, loop);
        a.ebreak();
    });
    size_t monotonicity = 0;
    for (const auto &f : report.findings) {
        monotonicity += f.cls == FindingClass::Monotonicity ? 1 : 0;
    }
    EXPECT_EQ(monotonicity, 1u) << report.toString();
}

} // namespace
} // namespace cheriot::verify
