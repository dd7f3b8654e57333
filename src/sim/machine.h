/**
 * @file
 * The CHERIoT machine: one core (Flute- or Ibex-flavoured timing),
 * tagged SRAM, the revocation bitmap and load filter, the background
 * revoker, and the console/timer devices, advancing on a shared cycle
 * clock.
 *
 * The machine exposes *checked* memory operations (capability
 * authorised, cycle charged, load-filtered, snooped) that are used
 * both by the instruction executor and by the RTOS layer, so the
 * architectural protection and the temporal-safety machinery behave
 * identically whether code runs as guest instructions or as modelled
 * RTOS primitives.
 */

#ifndef CHERIOT_SIM_MACHINE_H
#define CHERIOT_SIM_MACHINE_H

#include "cap/capability.h"
#include "debug/stats.h"
#include "fault/fault_injector.h"
#include "isa/encoding.h"
#include "mem/bus.h"
#include "mem/memory_map.h"
#include "revoker/background_revoker.h"
#include "revoker/load_filter.h"
#include "revoker/revocation_bitmap.h"
#include "sim/core_config.h"
#include "sim/csr.h"
#include "snapshot/serializer.h"
#include "util/stats.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cheriot::debug
{
class RunControl;
}

namespace cheriot::snapshot
{
class SnapshotWriter;
class SnapshotReader;
struct SnapshotImage;
} // namespace cheriot::snapshot

namespace cheriot::sim
{

/** Console + power-control MMIO device for guest programs. */
class ConsoleDevice : public mem::MmioDevice
{
  public:
    std::string name() const override { return "console"; }
    uint32_t read32(uint32_t offset) override;
    void write32(uint32_t offset, uint32_t value) override;

    const std::string &output() const { return output_; }
    bool exitRequested() const { return exitRequested_; }
    uint32_t exitCode() const { return exitCode_; }
    void reset();

    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.str(self.output_);
        a.b(self.exitRequested_);
        a.u32(self.exitCode_);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }

  private:
    std::string output_;
    bool exitRequested_ = false;
    uint32_t exitCode_ = 0;
};

/** Cycle-driven timer with a compare interrupt. */
class TimerDevice : public mem::MmioDevice
{
  public:
    std::string name() const override { return "timer"; }
    uint32_t read32(uint32_t offset) override;
    void write32(uint32_t offset, uint32_t value) override;

    void tick(uint64_t now) { now_ = now; }
    bool interruptPending() const
    {
        return armed_ && now_ >= compare_;
    }
    /** A compare is set: the interrupt comes once time reaches it. */
    bool armed() const { return armed_; }
    void disarm() { armed_ = false; }

    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.u64(self.now_);
        a.u64(self.compare_);
        a.b(self.armed_);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }

  private:
    uint64_t now_ = 0;
    uint64_t compare_ = ~uint64_t{0};
    bool armed_ = false;
};

struct MachineConfig
{
    CoreConfig core = CoreConfig::ibex();
    uint32_t sramSize = 1u << 20; ///< 1 MiB.
    /** Heap window (covered by revocation bits); offsets within SRAM. */
    uint32_t heapOffset = 512u << 10;
    uint32_t heapSize = 256u << 10;
    /** Optional fault-injection engine; the machine attaches it to
     * the SRAM / bitmap / revoker and ticks it at its events. */
    fault::FaultInjector *injector = nullptr;
};

/** Why run()/step() stopped. */
enum class HaltReason : uint8_t
{
    Running,      ///< Not halted.
    ConsoleExit,  ///< Guest wrote the exit register.
    Breakpoint,   ///< EBREAK retired.
    DoubleTrap,   ///< Trap taken with an unusable trap vector.
    InstrLimit,   ///< run() hit its instruction budget.
};

struct RunResult
{
    HaltReason reason;
    uint64_t instructions;
    uint64_t cycles;
};

class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /** @name Architectural register file
     * c0 is hard-wired null: writeReg refuses it, resetCpu clears it
     * and restore skips it, so regs_[0] stays the null capability. @{ */
    const cap::Capability &readReg(unsigned index) const
    {
        return regs_[index];
    }
    void writeReg(unsigned index, const cap::Capability &value)
    {
        if (index != 0 && index < isa::kNumRegs) {
            regs_[index] = value;
        }
    }
    /** An integer result: untagged, null metadata. */
    void writeRegInt(unsigned index, uint32_t value)
    {
        writeReg(index, cap::Capability::fromInteger(value));
    }
    uint32_t readRegInt(unsigned index) const
    {
        return readReg(index).address();
    }
    /** @} */

    /** @name PCC and interrupt posture @{ */
    const cap::Capability &pcc() const { return pcc_; }
    void setPcc(const cap::Capability &pcc) { pcc_ = pcc; }
    bool interruptsEnabled() const { return csrs_.mie; }
    void setInterruptsEnabled(bool enabled) { csrs_.mie = enabled; }
    /** @} */

    CsrFile &csrs() { return csrs_; }
    const CoreConfig &config() const { return config_.core; }
    CoreConfig &mutableConfig() { return config_.core; }
    const MachineConfig &machineConfig() const { return config_; }

    /** @name Components @{ */
    mem::PhysicalMemory &memory() { return memory_; }
    revoker::RevocationBitmap &revocationBitmap() { return bitmap_; }
    revoker::LoadFilter &loadFilter() { return filter_; }
    revoker::BackgroundRevoker &backgroundRevoker() { return bgRevoker_; }
    ConsoleDevice &console() { return console_; }
    TimerDevice &timer() { return timer_; }
    mem::Bus &bus() { return bus_; }
    /** Attached fault injector, or null. */
    fault::FaultInjector *faultInjector() { return injector_; }
    /** @} */

    /** Heap window in architectural addresses. */
    uint32_t heapBase() const;
    uint32_t heapEnd() const { return heapBase() + config_.heapSize; }

    /** @name Time @{ */
    uint64_t cycles() const { return cycles_.value(); }
    uint64_t instructions() const { return instructions_.value(); }
    /**
     * Advance the clock. The first @p memPortBusy cycles have the
     * load-store unit occupied by the main pipeline; remaining cycles
     * leave it free for the background revoker.
     *
     * Time advances in windows that end only at the fault injector's
     * next event (or at @p cycleCount): nothing else can change state
     * inside a window — stores, MMIO kicks and interrupts all happen
     * between calls — so each window is one step of the revoker and
     * one injector tick, equal to ticking both once per cycle.
     *
     * Machine state picks the path: a call that ends before the
     * injector's next event (always, with no injector attached) is one
     * window, inline — the tick it would end with is a no-op — and
     * while the revoker is idle it only adds the cycles and ticks the
     * timer. Only a call that reaches an event goes out of line.
     */
    void advance(uint64_t cycleCount, uint64_t memPortBusy = 0)
    {
        if (injector_ != nullptr &&
            cycles() + cycleCount >= injector_->nextEventCycle(cycles())) {
            advanceToInjectorEvents(cycleCount, memPortBusy);
            return;
        }
        bgRevoker_.advance(cycleCount, memPortBusy);
        cycles_ += cycleCount;
        timer_.tick(cycles());
    }
    /** Idle cycles: the port is entirely free. */
    void idle(uint64_t cycleCount) { advance(cycleCount, 0); }
    /** @} */

    /** @name Checked memory operations
     * All return TrapCause::None on success. @p charge controls
     * whether simulated cycles are consumed. @{ */
    TrapCause loadData(const cap::Capability &auth, uint32_t addr,
                       unsigned bytes, bool signExtend, uint32_t *out,
                       bool charge = true);
    TrapCause storeData(const cap::Capability &auth, uint32_t addr,
                        unsigned bytes, uint32_t value, bool charge = true);
    TrapCause loadCap(const cap::Capability &auth, uint32_t addr,
                      cap::Capability *out, bool charge = true);
    TrapCause storeCap(const cap::Capability &auth, uint32_t addr,
                       const cap::Capability &value, bool charge = true);
    /** @} */

    /** Zero [addr, addr+bytes) via @p auth, at bus speed. */
    TrapCause zeroMemory(const cap::Capability &auth, uint32_t addr,
                         uint32_t bytes, bool charge = true);

    /** @name Execution @{ */
    /** Execute one instruction (taking pending interrupts first): the
     * block runner capped at one instruction. */
    void step() { runBlocks(1); }
    /** Run until halt, trap-to-nowhere, or @p maxInstructions, one
     * straight-line block at a time (see runBlocks). */
    RunResult run(uint64_t maxInstructions)
    {
        return runLoop(maxInstructions, nullptr, false);
    }
    /**
     * Run under debugger control: like run(), but the installed
     * RunControl's breakpoints are checked against the next PC before
     * each instruction, watchpoint/capability-fault stops recorded by
     * the memory/trap hooks end the loop after the current
     * instruction, and @p singleStep retires exactly one instruction.
     * The loop never executes the instruction at the resume PC's
     * breakpoint (gdb resumes *from* a breakpoint; the first
     * iteration is exempt). Requires setRunControl().
     */
    RunResult runControl(uint64_t maxInstructions, bool singleStep);
    bool halted() const { return halt_ != HaltReason::Running; }
    HaltReason haltReason() const { return halt_; }
    void clearHalt() { halt_ = HaltReason::Running; }
    /** Cause of the most recent trap (diagnostics). */
    TrapCause lastTrap() const { return lastTrap_; }
    uint64_t trapCount() const { return traps_.value(); }
    /** Typed diagnosis of the most recent undecodable fetch (why the
     * word was reserved/malformed); ok() until one occurs. */
    const isa::DecodeError &lastDecodeError() const
    {
        return lastDecodeError_;
    }
    /** @} */

    /** @name Program loading @{ */
    /** Copy @p words into SRAM at @p addr and flush the decode cache. */
    void loadProgram(const std::vector<uint32_t> &words, uint32_t addr);
    /**
     * Reset architectural state for a fresh run: PCC is an
     * executable-root capability at @p entry, the memory root is in
     * a0 and the sealing root in a1 (§3.1.1: all three roots are
     * present in registers on reset).
     */
    void resetCpu(uint32_t entry);
    /** @} */

    /** Raise a trap (also used by the RTOS layer for fatal errors). */
    void raiseTrap(TrapCause cause, uint32_t tval);

    /** @name Snapshot / restore
     * save() captures every architecturally visible piece of machine
     * state — registers, PCC, CSRs, tagged SRAM with micro-tags, the
     * revocation bitmap, the background revoker's pipeline, devices
     * and counters — as sections of a snapshot image, laid out once
     * by transferImage(). restore() is its exact inverse and leaves
     * the machine bit-identical to the one that saved. Before it
     * changes anything it checks that every section is present and
     * that the configuration section matches this machine. A section
     * that is malformed or cut short is refused too, but only when it
     * is reached: restore() then returns false with the sections
     * before it already restored, so the caller must discard the
     * machine or restore a good image over it. The fault injector is
     * deliberately *not* part of the image; replay reconstructs it
     * from the recorded seed. @{ */
    void save(snapshot::SnapshotWriter &out) const;
    bool restore(const snapshot::SnapshotReader &in);
    /** Convenience wrappers over a whole image. */
    snapshot::SnapshotImage saveImage() const;
    bool restoreImage(const snapshot::SnapshotImage &image);
    /** CRC-32 of the canonical image: equal digests ⇔ equal state. */
    uint32_t stateDigest() const;
    /** @} */

    /** Per-retired-instruction hook (tracing); null disables. */
    using TraceHook = std::function<void(uint32_t pc,
                                         const isa::Inst &inst)>;
    void setTraceHook(TraceHook hook) { traceHook_ = std::move(hook); }

    /** @name Debugger seam
     * The installed RunControl observes checked memory accesses
     * (watchpoints), capability-check failures and traps; it never
     * mutates machine state and is not serialized. Null detaches. @{ */
    void setRunControl(debug::RunControl *rc) { runControl_ = rc; }
    debug::RunControl *runControlHook() { return runControl_; }
    /**
     * Debugger memory read/write over SRAM, bypassing the bus, the
     * access counters and the charge model (a JTAG-style back door;
     * MMIO is refused — device reads have side effects). Writes obey
     * the tag-clearing rule and invalidate touched decode-cache
     * entries. False when the range is not SRAM.
     */
    bool debugReadMem(uint32_t addr, uint32_t len,
                      std::vector<uint8_t> *out) const;
    bool debugWriteMem(uint32_t addr, const std::vector<uint8_t> &data);
    /** @} */

    /** Unified counter registry over this machine's components (the
     * kernel attaches its groups when it boots on this machine). */
    debug::SimStats &simStats() { return simStats_; }
    const debug::SimStats &simStats() const { return simStats_; }

    Counter loads;
    Counter stores;
    Counter capLoads;
    Counter capStores;
    Counter traps_;
    /** Decode-cache fills. Diagnostic only — deliberately not
     * serialized: fills happen at restore-history-dependent points
     * (see formBlock), so a resumed run legitimately diverges here. */
    Counter decodeFills;

  private:
    friend class Executor;

    /** advance() over a span that reaches an injector event: windows
     * end at its events, and it is ticked at the end of each. */
    void advanceToInjectorEvents(uint64_t cycleCount, uint64_t memPortBusy);
    /** The one run loop: with @p rc null it runs blocks (run());
     * otherwise it checks @p rc's breakpoints before and its stops
     * after each instruction (runControl()). */
    RunResult runLoop(uint64_t maxInstructions, debug::RunControl *rc,
                      bool singleStep);
    /**
     * Execute up to @p budget instructions as straight-line blocks,
     * each chained into the next, and stop early at a halt or once
     * endBlock_ is set. Per block, not per instruction: the spurious
     * fault and interrupt polls, the PCC and SRAM fetch checks and the
     * decode-cache lookup. Each instruction still retires, is traced
     * and advances time on its own, so every count, cycle and digest
     * equals single-stepping. A block is cut to one instruction while
     * a RunControl is installed, a console exit is already requested,
     * or interrupts are enabled with the timer armed or a sweep
     * running (an interrupt could become takeable mid-block).
     */
    void runBlocks(uint64_t budget);
    void execute(const isa::Inst &inst, uint32_t pc);
    bool takePendingInterrupt();

    /** Common access validation: isa::accessCause's capability
     * checks, then the mapping; returns None when allowed. Inline:
     * every checked access runs it. In baseline RV32E (CHERI off)
     * @p auth is unused: only the mapping and alignment are checked,
     * and the load and store bodies never read it either. */
    TrapCause checkAccess(const cap::Capability &auth, uint32_t addr,
                          unsigned bytes, uint16_t needPerm) const;

    /** @name The checked-access skeleton
     * Each checked op computes its capability checks' @p cause, then
     * runs access(): the RunControl notes, the bus transaction of
     * @p beats (a failed one is charged @p cycles and faults),
     * @p body (the load or store itself), the store side effects and
     * the final charge. zeroMemory reuses the note and store helpers.
     * @{ */
    template <class Body>
    TrapCause access(TrapCause cause, uint32_t addr, unsigned bytes,
                     bool isWrite, unsigned beats, unsigned cycles,
                     bool charge, Body &&body);
    /** Tell the debugger about a checked access: a failed check when
     * @p cause is not None, else the access. Returns @p cause. */
    TrapCause noteAccess(TrapCause cause, bool isWrite, uint32_t addr,
                         uint32_t bytes);
    /** The end of a block at a store outside SRAM, decode
     * invalidation, the revoker's snoop and the stack high-water mark
     * for a store to [@p addr, @p addr + @p bytes). Inline: each runs
     * inline while it has nothing to do. */
    void storeEffects(uint32_t addr, uint32_t bytes)
    {
        if (!memory_.isSram(addr, bytes)) {
            endBlock_ = true;
        }
        invalidateDecode(addr, bytes);
        bgRevoker_.snoopStore(addr, bytes);
        if (config_.core.hwmEnabled) {
            csrs_.noteStore(addr);
        }
    }
    /** @} */

    MachineConfig config_;
    mem::PhysicalMemory memory_;
    revoker::RevocationBitmap bitmap_;
    revoker::LoadFilter filter_;
    revoker::BackgroundRevoker bgRevoker_;
    ConsoleDevice console_;
    TimerDevice timer_;
    mem::Bus bus_;
    fault::FaultInjector *injector_ = nullptr;

    cap::Capability regs_[isa::kNumRegs];
    cap::Capability pcc_;
    CsrFile csrs_;

    Counter cycles_;
    Counter instructions_;
    HaltReason halt_ = HaltReason::Running;
    TrapCause lastTrap_ = TrapCause::None;
    isa::DecodeError lastDecodeError_;

    /** Register written by the immediately preceding load (for the
     * load-to-use stall model); kNumRegs means none. */
    unsigned pendingLoadReg_ = isa::kNumRegs;

    /** Words per decode page (4 KiB of SRAM). */
    static constexpr uint32_t kPageWords = 1024;
    /**
     * One page of the decode cache: each word's decode, filled by its
     * first fetch, and the cached length of the block that starts at
     * it (0 while unknown). A block is the run of decoded words from
     * its start up to and including the first control transfer,
     * system or CSR op, and never crosses the page; its length is
     * cached only once it reaches that op or the page end, so no word
     * is decoded before it is fetched.
     */
    struct DecodePage
    {
        isa::Inst insts[kPageWords];
        bool valid[kPageWords] = {};
        uint16_t blockLength[kPageWords] = {};
    };
    /** Decode pages over SRAM, each allocated by its first fetch: a
     * machine that runs no guest code (the RTOS and network stack are
     * host C++) holds none. Every checked store and debugger write
     * drops the words it covers, and with them the block lengths of
     * their page, so a fetch always decodes what memory holds. Valid
     * entries all lie in the word range [decodedLow_, decodedHigh_),
     * so a store elsewhere (data, MMIO) costs two compares. A host
     * cache: never serialized. */
    std::vector<std::unique_ptr<DecodePage>> decodePages_;
    uint32_t decodedLow_ = UINT32_MAX;
    uint32_t decodedHigh_ = 0;
    /** Fetch SRAM word @p word (decoding it if it is not cached) and
     * return the length of the block that starts at it: the slow path
     * of runBlocks' lookup, taken while no length is cached there. */
    uint32_t formBlock(uint32_t word);
    /** Drop cached decodes of the SRAM words [addr, addr + bytes)
     * touches; a range outside SRAM has none. Inline while the range
     * misses the decoded words: an address below SRAM wraps to a huge
     * word index and one above it lies past decodedHigh_. */
    void invalidateDecode(uint32_t addr, uint32_t bytes)
    {
        if ((addr - mem::kSramBase) / 4 < decodedHigh_ &&
            (addr + bytes - 1 - mem::kSramBase) / 4 >= decodedLow_) {
            dropDecoded(addr, bytes);
        }
    }
    void dropDecoded(uint32_t addr, uint32_t bytes);
    /**
     * Ends the current block after the instruction that sets it:
     * raiseTrap, a store outside SRAM (a revoker kick, a timer
     * compare, a console exit), a decode-cache drop and an advance
     * window that reaches a fault-injector event. Host-only: never
     * serialized, cleared at each block start.
     */
    bool endBlock_ = false;
    /** The image layout behind save() and restore(). */
    template <class Self, class Image>
    static bool transferImage(Self &self, Image &image);

    TraceHook traceHook_;
    debug::RunControl *runControl_ = nullptr;

    StatGroup stats_;
    debug::SimStats simStats_;
};

inline TrapCause
Machine::checkAccess(const cap::Capability &auth, uint32_t addr,
                     unsigned bytes, uint16_t needPerm) const
{
    if (!config_.core.cheriEnabled) {
        // Baseline RV32E: no architectural checks beyond mapping;
        // @p auth is whatever register the instruction named.
        if (!memory_.isMapped(addr, bytes)) {
            return needPerm == cap::PermStore ? TrapCause::StoreAccessFault
                                              : TrapCause::LoadAccessFault;
        }
        return addr % bytes != 0 ? TrapCause::MisalignedAccess
                                 : TrapCause::None;
    }
    const TrapCause cause = isa::accessCause(auth, addr, bytes, needPerm);
    if (cause == TrapCause::None && !memory_.isMapped(addr, bytes)) {
        return needPerm == cap::PermStore ? TrapCause::StoreAccessFault
                                          : TrapCause::LoadAccessFault;
    }
    return cause;
}

} // namespace cheriot::sim

#endif // CHERIOT_SIM_MACHINE_H
