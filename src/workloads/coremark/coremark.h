/**
 * @file
 * CoreMark-equivalent benchmark for Table 3 (paper §7.2.1).
 *
 * EEMBC CoreMark exercises three kernels: linked-list manipulation,
 * matrix arithmetic, and a table-driven state machine, validated by a
 * running CRC. This reimplementation assembles the same three-kernel
 * mix for the CHERIoT guest ISA in three build configurations:
 *
 *  - RV32E baseline: pointers are 32-bit integers, no checks.
 *  - +Capabilities: pointers are 64-bit capabilities (CLC/CSC moves
 *    them, two bus beats on Ibex), objects get bounds applied, and
 *    the two known `-Oz` Clang-13 code-generation bugs the paper
 *    describes are emulated (unfolded capability address arithmetic
 *    and redundant bounds on global accesses).
 *  - +Load filter: the same binary with the revocation lookup
 *    enabled, which costs a cycle per capability load on Ibex and
 *    nothing on Flute.
 *
 * All three configurations must compute the same checksum; the
 * harness verifies this before reporting a score.
 */

#ifndef CHERIOT_WORKLOADS_COREMARK_COREMARK_H
#define CHERIOT_WORKLOADS_COREMARK_COREMARK_H

#include "isa/assembler.h"
#include "sim/machine.h"
#include "snapshot/checkpoint.h"
#include "snapshot/snapshot.h"
#include "util/bits.h"

#include <cstdint>
#include <string>

namespace cheriot::workloads
{

/**
 * Pointer-representation abstraction: the same kernel source emits
 * either integer-pointer RV32E code or capability code.
 */
struct PtrModel
{
    bool cheri = true;
    /** Emulate the two known `-Oz` Clang-13 code-generation bugs the
     * paper describes (§7.2); the paper expects both fixed before
     * silicon, so the ablation bench also measures with them off. */
    bool compilerBugs = true;

    uint32_t ptrSize() const { return cheri ? 8 : 4; }

    /** dst = [base + off] (pointer load). */
    void loadPtr(isa::Assembler &a, uint8_t dst, uint8_t base,
                 int32_t off) const
    {
        if (cheri) {
            a.clc(dst, base, off);
        } else {
            a.lw(dst, base, off);
        }
    }

    /** [base + off] = src (pointer store). */
    void storePtr(isa::Assembler &a, uint8_t src, uint8_t base,
                  int32_t off) const
    {
        if (cheri) {
            a.csc(src, base, off);
        } else {
            a.sw(src, base, off);
        }
    }

    /** dst = src preserving pointer-ness. */
    void movePtr(isa::Assembler &a, uint8_t dst, uint8_t src) const
    {
        if (cheri) {
            a.cmove(dst, src);
        } else {
            a.mv(dst, src);
        }
    }

    /** dst = src + imm (pointer bump). */
    void addPtr(isa::Assembler &a, uint8_t dst, uint8_t src,
                int32_t imm) const
    {
        if (cheri) {
            a.cincaddrimm(dst, src, imm);
        } else {
            a.addi(dst, src, imm);
        }
    }

    /** dst = pointer into @p region at the address in @p addrReg. */
    void derivePtr(isa::Assembler &a, uint8_t dst, uint8_t region,
                   uint8_t addrReg) const
    {
        if (cheri) {
            a.csetaddr(dst, region, addrReg);
        } else {
            a.mv(dst, addrReg);
        }
    }

    /** Apply object bounds of @p bytes (≤ 4095) to @p reg. */
    void boundPtr(isa::Assembler &a, uint8_t reg, int32_t bytes) const
    {
        if (cheri) {
            a.csetboundsimm(reg, reg, bytes);
        }
    }

    /**
     * Compiler-bug emulation (§7.2): bug 2 applies bounds to global
     * accesses even when provably in range; bug 1 leaves capability
     * address arithmetic unfolded. Emitted only in capability mode.
     */
    void globalAccessOverhead(isa::Assembler &a, uint8_t reg,
                              int32_t bytes) const
    {
        if (cheri && compilerBugs) {
            a.csetboundsimm(reg, reg, bytes); // bug 2
            a.cincaddrimm(reg, reg, 0);       // bug 1 (unfolded add)
        }
    }

    /**
     * Bug 1 in its hottest form: address computations over arrays of
     * structures stay unfolded when the base is a capability,
     * costing one extra arithmetic instruction per indexed access.
     */
    void unfoldedIndexOverhead(isa::Assembler &a, uint8_t reg) const
    {
        if (cheri && compilerBugs) {
            a.cincaddrimm(reg, reg, 0);
        }
    }
};

struct CoreMarkConfig
{
    sim::CoreConfig core = sim::CoreConfig::ibex();
    uint32_t iterations = 200;
    /** Emulate the §7.2 `-Oz` compiler bugs (ablation knob). */
    bool emulateCompilerBugs = true;
    /** Optional fault injector wired into the machine (campaigns). */
    fault::FaultInjector *injector = nullptr;
    /** Instruction budget override (0 = default 2e9). Campaigns use a
     * tight budget so a fault that hangs the guest is detected as
     * InstrLimit rather than stalling the run. */
    uint64_t maxInstructions = 0;

    /** @name Crash-consistent checkpointing
     * With a sink and a nonzero interval, the run is sliced and a
     * whole-machine snapshot is stored every interval; a run killed at
     * any point and restarted from resumeImage finishes bit-identical
     * (same digest, same absolute cycle/instruction counts) to an
     * uninterrupted one, because slicing only observes state. @{ */
    uint64_t checkpointEveryInstructions = 0;
    snapshot::CheckpointManager *checkpoints = nullptr;
    /** Resume from this image instead of starting at reset. */
    const snapshot::SnapshotImage *resumeImage = nullptr;
    /** When set, receives the machine state at the start of the run
     * (after reset/resume, before the first instruction) — the
     * pre-fault image fault campaigns attach to repro records. */
    snapshot::SnapshotImage *preRunSnapshotOut = nullptr;
    /** @} */
};

struct CoreMarkResult
{
    std::string configName;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint32_t checksum = 0;
    /** Iterations per million cycles (the CoreMark/MHz analogue). */
    double score = 0.0;
    bool valid = false;

    /** @name Fault-recovery observability (campaign classification) @{ */
    sim::HaltReason haltReason = sim::HaltReason::Running;
    uint64_t trapsTaken = 0;
    uint64_t busRetries = 0;
    uint64_t busDelayCycles = 0;
    /** @} */

    /** Whole-machine state digest at halt: an interrupted-and-resumed
     * run must report the same digest as an uninterrupted one. */
    uint32_t finalDigest = 0;
};

/** Emits the complete guest program for one configuration. */
class CoreMarkBuilder
{
  public:
    explicit CoreMarkBuilder(const CoreMarkConfig &config);

    std::vector<uint32_t> build();

    uint32_t entry() const { return kProgramBase; }

    static constexpr uint32_t kProgramBase = mem::kSramBase + 0x1000;
    static constexpr uint32_t kArenaBase = mem::kSramBase + 0x10000;
    static constexpr uint32_t kArenaSize = 0x10000;

  private:
    /** @name Kernel sizes @{ */
    static constexpr uint32_t kListNodes = 128;
    static constexpr uint32_t kMatrixN = 8;
    static constexpr uint32_t kStateBytes = 128;
    /** List passes per iteration (CoreMark's time profile is
     * list-heavy relative to the kernels' static sizes). */
    static constexpr uint32_t kListPasses = 3;
    /** @} */
    static_assert(isPowerOfTwo(kListNodes),
                  "the find loop masks the iteration count with "
                  "kListNodes - 1");

    /** @name Arena layout @{ */
    uint32_t nodeStride() const
    {
        // As in CoreMark's list_head_s: next pointer + info pointer,
        // then the value, padded to pointer alignment.
        return ptr_.cheri ? 24 : 12;
    }
    uint32_t listBase() const { return kArenaBase; }
    uint32_t matrixABase() const
    {
        return listBase() + kListNodes * 24 /* worst case */;
    }
    uint32_t matrixBBase() const
    {
        return matrixABase() + kMatrixN * kMatrixN * 4;
    }
    uint32_t stateBase() const
    {
        return matrixBBase() + kMatrixN * kMatrixN * 4;
    }
    /** @} */

    void emitSetup();
    void emitOuterLoop();
    void emitFinish();
    void emitListInit();
    void emitListBench();
    void emitMatrixInit();
    void emitMatrixBench();
    void emitStateInit();
    void emitStateBench();

    CoreMarkConfig config_;
    PtrModel ptr_;
    isa::Assembler asm_;
    isa::Assembler::Label listBenchLabel_;
    isa::Assembler::Label matrixBenchLabel_;
    isa::Assembler::Label stateBenchLabel_;
};

/** Run one configuration to completion and report its score. */
CoreMarkResult runCoreMark(const CoreMarkConfig &config,
                           const std::string &name);

/** One Table 3 row-set: baseline, +capabilities, +load filter. */
struct CoreMarkTableRow
{
    std::string coreName;
    CoreMarkResult baseline;
    CoreMarkResult withCaps;
    CoreMarkResult withFilter;
    double capsOverheadPercent() const
    {
        return 100.0 * (baseline.score - withCaps.score) / baseline.score;
    }
    double filterOverheadPercent() const
    {
        return 100.0 * (baseline.score - withFilter.score) /
               baseline.score;
    }
};

/** Run all three configurations on one core model. */
CoreMarkTableRow runCoreMarkRow(sim::CoreConfig core,
                                uint32_t iterations = 200);

} // namespace cheriot::workloads

#endif // CHERIOT_WORKLOADS_COREMARK_COREMARK_H
