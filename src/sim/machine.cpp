#include "sim/machine.h"

#include "debug/run_control.h"
#include "fault/fault_injector.h"
#include "snapshot/snapshot.h"
#include "util/bits.h"
#include "util/log.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace cheriot::sim
{

using cap::Capability;
using cap::PermSet;

// --- ConsoleDevice ---------------------------------------------------

uint32_t
ConsoleDevice::read32(uint32_t offset)
{
    switch (offset) {
      case 0x0: return 0;
      case 0x4: return exitCode_;
      default: return 0;
    }
}

void
ConsoleDevice::write32(uint32_t offset, uint32_t value)
{
    switch (offset) {
      case 0x0:
        output_.push_back(static_cast<char>(value & 0xff));
        break;
      case 0x4:
        exitRequested_ = true;
        exitCode_ = value;
        break;
      default:
        break;
    }
}

void
ConsoleDevice::reset()
{
    output_.clear();
    exitRequested_ = false;
    exitCode_ = 0;
}

// --- TimerDevice ------------------------------------------------------

uint32_t
TimerDevice::read32(uint32_t offset)
{
    switch (offset) {
      case 0x0: return static_cast<uint32_t>(now_);
      case 0x4: return static_cast<uint32_t>(now_ >> 32);
      case 0x8: return static_cast<uint32_t>(compare_);
      case 0xc: return static_cast<uint32_t>(compare_ >> 32);
      default: return 0;
    }
}

void
TimerDevice::write32(uint32_t offset, uint32_t value)
{
    switch (offset) {
      case 0x8:
        compare_ = (compare_ & 0xffffffff00000000ull) | value;
        armed_ = true;
        break;
      case 0xc:
        compare_ = (compare_ & 0xffffffffull) |
                   (static_cast<uint64_t>(value) << 32);
        armed_ = true;
        break;
      default:
        break;
    }
}

// --- Machine ----------------------------------------------------------

Machine::Machine(const MachineConfig &config)
    : config_(config), memory_(config.sramSize),
      bitmap_(mem::kSramBase + config.heapOffset, config.heapSize),
      filter_(&bitmap_),
      bgRevoker_(memory_.sram(), bitmap_, config.core.bus),
      bus_(config.core.bus), injector_(config.injector),
      stats_("machine")
{
    if (config.heapOffset + config.heapSize > config.sramSize) {
        fatal("heap window [0x%x, +0x%x) exceeds SRAM of 0x%x bytes",
              config.heapOffset, config.heapSize, config.sramSize);
    }
    memory_.mmio().map(mem::kRevocationBitmapBase, bitmap_.mmioSize(),
                       &bitmap_);
    memory_.mmio().map(mem::kRevokerMmioBase, mem::kRevokerMmioSize,
                       &bgRevoker_);
    memory_.mmio().map(mem::kConsoleMmioBase, mem::kConsoleMmioSize,
                       &console_);
    memory_.mmio().map(mem::kTimerMmioBase, mem::kTimerMmioSize, &timer_);

    filter_.setEnabled(config.core.loadFilterEnabled);

    if (injector_ != nullptr) {
        injector_->attachMemory(&memory_.sram());
        injector_->attachBitmap(&bitmap_);
        bgRevoker_.setFaultInjector(injector_);
    }

    stats_.registerCounter("cycles", cycles_);
    stats_.registerCounter("instructions", instructions_);
    stats_.registerCounter("loads", loads);
    stats_.registerCounter("stores", stores);
    stats_.registerCounter("capLoads", capLoads);
    stats_.registerCounter("capStores", capStores);
    stats_.registerCounter("traps", traps_);
    stats_.registerCounter("decodeFills", decodeFills);

    // The unified registry: every component's group in one directory,
    // queryable by bench harnesses and the GDB stub alike. The kernel
    // attaches the RTOS-side groups when it boots on this machine.
    simStats_.attach(stats_);
    simStats_.attach(memory_.sram().stats());
    simStats_.attach(bus_.stats());
    simStats_.attach(bitmap_.stats());
    simStats_.attach(filter_.stats());
    simStats_.attach(bgRevoker_.stats());
}

uint32_t
Machine::heapBase() const
{
    return mem::kSramBase + config_.heapOffset;
}

void
Machine::advanceToInjectorEvents(uint64_t cycleCount, uint64_t memPortBusy)
{
    for (uint64_t done = 0; done < cycleCount;) {
        const uint64_t event = injector_->nextEventCycle(cycles());
        const uint64_t window = std::min(cycleCount - done, event - cycles());
        const uint64_t busy =
            memPortBusy > done ? std::min(memPortBusy - done, window) : 0;
        bgRevoker_.advance(window, busy);
        cycles_ += window;
        done += window;
        injector_->tick(cycles());
        if (cycles() == event) {
            // The injector may have acted (a spurious fault to take,
            // memory or the revoker changed): the next instruction
            // starts a block and polls it.
            endBlock_ = true;
        }
    }
    timer_.tick(cycles());
}

TrapCause
Machine::noteAccess(TrapCause cause, bool isWrite, uint32_t addr,
                    uint32_t bytes)
{
    if (runControl_ != nullptr) {
        if (cause != TrapCause::None) {
            runControl_->noteCapCheckFail(cause, addr, pcc_.address());
        } else {
            runControl_->noteMemAccess(isWrite, addr, bytes);
        }
    }
    return cause;
}

template <class Body>
TrapCause
Machine::access(TrapCause cause, uint32_t addr, unsigned bytes,
                bool isWrite, unsigned beats, unsigned cycles, bool charge,
                Body &&body)
{
    if (noteAccess(cause, isWrite, addr, bytes) != TrapCause::None) {
        return cause;
    }
    mem::BusResult bt;
    if (charge) {
        bt = bus_.transact(beats, injector_);
        if (!bt.ok) {
            // Retries exhausted: the cycles burnt replaying are real,
            // but the data never arrives or the write never reaches
            // the SRAM.
            advance(cycles + bt.extraCycles, beats + bt.extraCycles);
            return isWrite ? TrapCause::StoreAccessFault
                           : TrapCause::LoadAccessFault;
        }
    }
    body();
    if (isWrite) {
        storeEffects(addr, bytes);
    }
    if (charge) {
        advance(cycles + bt.extraCycles, beats + bt.extraCycles);
    }
    return TrapCause::None;
}

TrapCause
Machine::loadData(const Capability &auth, uint32_t addr, unsigned bytes,
                  bool signExtend, uint32_t *out, bool charge)
{
    return access(
        checkAccess(auth, addr, bytes, cap::PermLoad), addr, bytes,
        /*isWrite=*/false, mem::dataBeats(config_.core.bus, bytes),
        config_.core.dataLoadCycles(bytes), charge, [&] {
            uint32_t raw = 0;
            switch (bytes) {
              case 1: raw = memory_.read8(addr); break;
              case 2: raw = memory_.read16(addr); break;
              case 4: raw = memory_.read32(addr); break;
              default: panic("loadData: bad size %u", bytes);
            }
            if (signExtend && bytes < 4) {
                raw = static_cast<uint32_t>(signExtend32(raw, bytes * 8));
            }
            *out = raw;
            loads++;
        });
}

TrapCause
Machine::storeData(const Capability &auth, uint32_t addr, unsigned bytes,
                   uint32_t value, bool charge)
{
    return access(
        checkAccess(auth, addr, bytes, cap::PermStore), addr, bytes,
        /*isWrite=*/true, mem::dataBeats(config_.core.bus, bytes),
        config_.core.dataStoreCycles(bytes), charge, [&] {
            switch (bytes) {
              case 1: memory_.write8(addr, static_cast<uint8_t>(value)); break;
              case 2:
                memory_.write16(addr, static_cast<uint16_t>(value));
                break;
              case 4: memory_.write32(addr, value); break;
              default: panic("storeData: bad size %u", bytes);
            }
            stores++;
        });
}

TrapCause
Machine::loadCap(const Capability &auth, uint32_t addr, Capability *out,
                 bool charge)
{
    return access(
        checkAccess(auth, addr, 8, cap::PermLoad), addr, 8,
        /*isWrite=*/false, mem::capBeats(config_.core.bus),
        config_.core.capLoadCycles(), charge, [&] {
            const auto raw = memory_.readCap(addr);
            Capability loaded = Capability::fromBits(raw.bits, raw.tag);
            if (!auth.perms().has(cap::PermMemCap)) {
                // Data-only authority: the value arrives untagged.
                loaded = loaded.withTagCleared();
            }
            loaded = loaded.attenuatedForLoad(auth.perms());
            loaded = filter_.filter(loaded);
            if (injector_ != nullptr && loaded.tag() &&
                injector_->isPoisoned(addr)) {
                // The safety oracle: a corrupted granule produced a
                // valid-looking capability that every architectural
                // defence (micro-tags, attenuation, load filter)
                // failed to strip.
                injector_->noteSafetyViolation(addr);
            }
            *out = loaded;
            capLoads++;
        });
}

TrapCause
Machine::storeCap(const Capability &auth, uint32_t addr,
                  const Capability &value, bool charge)
{
    TrapCause cause = checkAccess(auth, addr, 8, cap::PermStore);
    if (cause == TrapCause::None) {
        cause = isa::capStoreCause(auth, value.tag(), value.isLocal());
    }
    return access(cause, addr, 8, /*isWrite=*/true,
                  mem::capBeats(config_.core.bus),
                  config_.core.capStoreCycles(), charge, [&] {
                      memory_.writeCap(addr, value.toBits(), value.tag());
                      if (injector_ != nullptr) {
                          // A full-width rewrite replaces every
                          // corrupted bit.
                          injector_->notePoisonRepaired(addr);
                      }
                      capStores++;
                  });
}

TrapCause
Machine::zeroMemory(const Capability &auth, uint32_t addr, uint32_t bytes,
                    bool charge)
{
    if (bytes == 0) {
        return TrapCause::None;
    }
    TrapCause cause = checkAccess(auth, addr, 1, cap::PermStore);
    if (cause == TrapCause::None && !auth.inBounds(addr, bytes)) {
        cause = TrapCause::CheriBoundsViolation;
    }
    if (cause == TrapCause::None && !memory_.isSram(addr, bytes)) {
        return TrapCause::StoreAccessFault;
    }
    if (noteAccess(cause, /*isWrite=*/true, addr, bytes) !=
        TrapCause::None) {
        return cause;
    }
    memory_.sram().zeroRange(addr, bytes);
    storeEffects(addr, bytes);
    if (charge) {
        // Zeroing proceeds at bus rate: one beat per bus word, plus a
        // small loop overhead per beat (fused store+bump, modelled as
        // busy port each cycle).
        const unsigned beats = mem::zeroBeats(config_.core.bus, bytes);
        advance(beats, beats);
    }
    return TrapCause::None;
}

void
Machine::raiseTrap(TrapCause cause, uint32_t tval)
{
    endBlock_ = true;
    traps_++;
    lastTrap_ = cause;
    if (runControl_ != nullptr) {
        // Idempotent with the checked-op hook: the first recorded
        // stop wins, so the executor raising the trap for a failure
        // the memory op already reported does not double-stop.
        runControl_->noteTrap(cause, tval, pcc_.address());
    }
    logf(LogLevel::Debug, "machine: trap %s (tval=0x%08x) at pc=0x%08x",
         trapCauseName(cause), tval, pcc_.address());
    csrs_.mcause = static_cast<uint32_t>(cause);
    csrs_.mtval = tval;
    csrs_.mepcc = pcc_;
    csrs_.mpie = csrs_.mie;
    csrs_.mie = false;
    if (!csrs_.mtcc.tag() || !csrs_.mtcc.perms().has(cap::PermExecute)) {
        halt_ = HaltReason::DoubleTrap;
        return;
    }
    pcc_ = csrs_.mtcc.unsealedCopy();
    // Trap entry costs a pipeline flush.
    advance(config_.core.takenBranchPenalty + 1, 0);
}

void
Machine::loadProgram(const std::vector<uint32_t> &words, uint32_t addr)
{
    for (size_t i = 0; i < words.size(); ++i) {
        memory_.sram().write32(addr + static_cast<uint32_t>(i) * 4,
                               words[i]);
    }
    invalidateDecode(mem::kSramBase, config_.sramSize);
}

void
Machine::resetCpu(uint32_t entry)
{
    for (auto &reg : regs_) {
        reg = Capability();
    }
    pcc_ = Capability::executableRoot().withAddress(entry);
    // All three roots are present in registers on reset (§3.1.1).
    writeReg(isa::A0, Capability::memoryRoot());
    writeReg(isa::A1, Capability::sealingRoot());
    csrs_ = CsrFile{};
    halt_ = HaltReason::Running;
    lastTrap_ = TrapCause::None;
    pendingLoadReg_ = isa::kNumRegs;
    console_.reset();
}

bool
Machine::takePendingInterrupt()
{
    if (!csrs_.mie) {
        return false;
    }
    if (bgRevoker_.takeCompletionIrq()) {
        raiseTrap(TrapCause::RevokerInterrupt, 0);
        return true;
    }
    if (timer_.interruptPending()) {
        timer_.disarm();
        raiseTrap(TrapCause::TimerInterrupt, 0);
        return true;
    }
    return false;
}

namespace
{

/** The ops that end a block: control transfers, system and CSR ops,
 * and Illegal (it traps). */
bool
endsBlock(isa::Op op)
{
    using isa::Op;
    switch (op) {
      case Op::Illegal:
      case Op::Jal: case Op::Jalr:
      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
      case Op::Bltu: case Op::Bgeu:
      case Op::Ecall: case Op::Ebreak: case Op::Mret:
      case Op::Csrrw: case Op::Csrrs: case Op::Csrrc:
      case Op::Csrrwi: case Op::Csrrsi: case Op::Csrrci:
      case Op::CSpecialRw:
        return true;
      default:
        return false;
    }
}

} // namespace

uint32_t
Machine::formBlock(uint32_t word)
{
    std::unique_ptr<DecodePage> &page = decodePages_[word / kPageWords];
    if (page == nullptr) {
        page = std::make_unique<DecodePage>();
    }
    const uint32_t start = word % kPageWords;
    if (!page->valid[start]) {
        // peek32, not read32: the cache fills lazily, so which fetches
        // miss depends on restore history — a counted read here would
        // make resumed runs diverge from straight ones in the
        // serialized access counters.
        page->insts[start] =
            isa::decode(memory_.sram().peek32(mem::kSramBase + word * 4));
        page->valid[start] = true;
        decodedLow_ = std::min(decodedLow_, word);
        decodedHigh_ = std::max(decodedHigh_, word + 1);
        decodeFills++;
    }
    // Only over words already decoded: stop short of the first that
    // is not, and cache the length once the block is whole.
    uint32_t end = start;
    while (!endsBlock(page->insts[end++].op) && end < kPageWords) {
        if (!page->valid[end]) {
            return end - start;
        }
    }
    page->blockLength[start] = static_cast<uint16_t>(end - start);
    return end - start;
}

void
Machine::runBlocks(uint64_t budget)
{
    if (decodePages_.empty()) {
        // Sized by the first run: a machine that runs no guest code
        // holds no decode cache at all.
        decodePages_.resize((config_.sramSize + kPageWords * 4 - 1) /
                            (kPageWords * 4));
    }
    while (!halted()) {
        endBlock_ = false;
        if (injector_ != nullptr) {
            // Spurious traps / trap storms hit the core between
            // instructions, exactly like a glitched interrupt line.
            // They arrive at injector events, which end a block.
            uint32_t cause = 0;
            if (injector_->takeSpuriousFault(&cause)) {
                raiseTrap(static_cast<TrapCause>(cause), pcc_.address());
                return;
            }
        }
        if (csrs_.mie && takePendingInterrupt()) {
            return;
        }

        const uint32_t pc = pcc_.address();
        // Instruction fetch checks: PCC must be a valid, unsealed (the
        // sentry unsealing happened at the jump), executable capability
        // covering the fetch.
        if (config_.core.cheriEnabled) {
            if (!pcc_.tag() || pcc_.isSealed() ||
                !pcc_.perms().has(cap::PermExecute) ||
                !pcc_.inBounds(pc, 4)) {
                raiseTrap(TrapCause::InstrAccessFault, pc);
                return;
            }
        }
        if (!memory_.isSram(pc, 4) || pc % 4 != 0) {
            raiseTrap(TrapCause::InstrAccessFault, pc);
            return;
        }

        // A cached length means the first word is decoded too;
        // otherwise decode it if need be and form the block.
        const uint32_t word = (pc - mem::kSramBase) / 4;
        const DecodePage *page = decodePages_[word / kPageWords].get();
        uint64_t length =
            page != nullptr ? page->blockLength[word % kPageWords] : 0;
        if (length == 0) {
            length = formBlock(word);
            page = decodePages_[word / kPageWords].get();
        }
        const isa::Inst *inst = &page->insts[word % kPageWords];
        // Every word of the block has been fetched before, so SRAM
        // covers it; the budget and PCC's bounds may end it sooner.
        length = std::min(length, budget);
        if (config_.core.cheriEnabled) {
            length = std::min(length, (pcc_.top() - pc) / 4);
        }
        if (runControl_ != nullptr || console_.exitRequested() ||
            (csrs_.mie && (timer_.armed() || bgRevoker_.sweeping()))) {
            length = 1;
        }

        const isa::Inst *const first = inst;
        const isa::Inst *const last = inst + length;
        uint32_t at = pc;
        do {
            if (inst->op == isa::Op::Illegal) {
                // Keep the typed diagnosis so the illegal-instruction
                // trap can say precisely which field was
                // reserved/malformed.
                isa::decode(memory_.sram().peek32(at), &lastDecodeError_);
            }
            instructions_++;
            if (traceHook_) {
                traceHook_(at, *inst);
            }
            execute(*inst, at);
            ++inst;
            at += 4;
        } while (inst != last && !endBlock_);
        budget -= static_cast<uint64_t>(inst - first);

        if (halt_ == HaltReason::Running && console_.exitRequested()) {
            halt_ = HaltReason::ConsoleExit;
        }
        if (endBlock_ || budget == 0) {
            return;
        }
    }
}

RunResult
Machine::runControl(uint64_t maxInstructions, bool singleStep)
{
    if (runControl_ == nullptr) {
        panic("runControl: no RunControl installed");
    }
    runControl_->clearStop();
    return runLoop(maxInstructions, runControl_, singleStep);
}

RunResult
Machine::runLoop(uint64_t maxInstructions, debug::RunControl *rc,
                 bool singleStep)
{
    const uint64_t startInstructions = instructions();
    const uint64_t startCycles = cycles();
    bool first = true;
    while (!halted() &&
           instructions() - startInstructions < maxInstructions) {
        const uint32_t pc = pcc_.address();
        // gdb resumes *from* a stop: a breakpoint at the resume PC
        // must not re-fire before the first instruction executes.
        if (rc != nullptr && !first && rc->hitsBreakpoint(pc)) {
            rc->stopWith(rc->hitsHwBreakpoint(pc)
                             ? debug::StopReason::HwBreakpoint
                             : debug::StopReason::SwBreakpoint,
                         pc);
            break;
        }
        first = false;
        // Whole blocks for run(); one instruction at a time between
        // the RunControl's checks.
        runBlocks(rc == nullptr
                      ? maxInstructions - (instructions() - startInstructions)
                      : 1);
        if (rc == nullptr) {
            continue;
        }
        if (rc->stopPending()) {
            // A watchpoint or capability fault fired in the block;
            // the instruction (and any trap entry) has completed.
            break;
        }
        if (halted() && halt_ == HaltReason::Breakpoint) {
            // Guest EBREAK: hand control to the debugger instead of
            // staying halted — gdb treats it as a soft breakpoint.
            clearHalt();
            rc->stopWith(debug::StopReason::SwBreakpoint, pcc_.address());
            break;
        }
        if (singleStep) {
            rc->stopWith(debug::StopReason::Step, pcc_.address());
            break;
        }
        if (rc->takeInterrupt()) {
            rc->stopWith(debug::StopReason::Interrupt, pcc_.address());
            break;
        }
    }
    if (rc != nullptr && !rc->stopPending() && halted()) {
        rc->stopWith(debug::StopReason::Halted, pcc_.address());
    }
    RunResult result;
    result.reason = halted() ? halt_ : HaltReason::InstrLimit;
    result.instructions = instructions() - startInstructions;
    result.cycles = cycles() - startCycles;
    return result;
}

bool
Machine::debugReadMem(uint32_t addr, uint32_t len,
                      std::vector<uint8_t> *out) const
{
    if (len == 0 || !memory_.sram().contains(addr, len)) {
        return false;
    }
    out->clear();
    out->reserve(len);
    for (uint32_t i = 0; i < len; ++i) {
        out->push_back(memory_.sram().peek8(addr + i));
    }
    return true;
}

bool
Machine::debugWriteMem(uint32_t addr, const std::vector<uint8_t> &data)
{
    const uint32_t len = static_cast<uint32_t>(data.size());
    if (len == 0 || !memory_.sram().contains(addr, len)) {
        return false;
    }
    for (uint32_t i = 0; i < len; ++i) {
        memory_.sram().debugWrite8(addr + i, data[i]);
    }
    invalidateDecode(addr, len);
    return true;
}

void
Machine::dropDecoded(uint32_t addr, uint32_t bytes)
{
    // The range meets the decoded words (invalidateDecode): clamp it.
    const uint32_t first =
        std::max((addr - mem::kSramBase) / 4, decodedLow_);
    const uint32_t end =
        std::min((addr + bytes - 1 - mem::kSramBase) / 4 + 1, decodedHigh_);
    for (uint32_t word = first; word < end;) {
        const uint32_t pageEnd =
            std::min(end, (word / kPageWords + 1) * kPageWords);
        if (DecodePage *page = decodePages_[word / kPageWords].get()) {
            bool dropped = false;
            for (; word < pageEnd; ++word) {
                dropped |= std::exchange(page->valid[word % kPageWords],
                                         false);
            }
            if (dropped) {
                // A block may run over the dropped word: forget every
                // length in the page, and end the current block.
                std::fill(std::begin(page->blockLength),
                          std::end(page->blockLength), 0);
                endBlock_ = true;
            }
        }
        word = pageEnd;
    }
    if (first == decodedLow_ && end == decodedHigh_) {
        decodedLow_ = UINT32_MAX;
        decodedHigh_ = 0;
    }
}

// --- Snapshot / restore ----------------------------------------------

template <class Self, class Image>
bool
Machine::transferImage(Self &self, Image &image)
{
    // The image must describe *this* machine: restoring into a
    // different core or memory geometry is meaningless.
    const auto config = [&](auto &a) {
        const MachineConfig &c = self.config_;
        a.expectU8(c.core.kind);
        a.expectStr(c.core.name);
        a.expectB(c.core.cheriEnabled);
        a.expectB(c.core.loadFilterEnabled);
        a.expectB(c.core.hwmEnabled);
        a.expectU8(c.core.bus);
        a.expectU32(c.sramSize);
        a.expectU32(c.heapOffset);
        a.expectU32(c.heapSize);
        a.expectU32(revoker::RevocationBitmap::kGranule);
        return a.ok();
    };
    const auto cpu = [&](auto &a) {
        for (unsigned i = 1; i < isa::kNumRegs; ++i) {
            a.cap(self.regs_[i]);
        }
        a.cap(self.pcc_);
        CsrFile::transfer(self.csrs_, a);
        a.counter(self.cycles_);
        a.counter(self.instructions_);
        a.u8(self.halt_);
        a.u32(self.lastTrap_);
        a.u32(self.pendingLoadReg_);
        // The retired count again, in the slot a second counter once
        // held: the layout stays at version 4, and an image whose two
        // copies differ is refused.
        a.expectU64(self.instructions_.value());
        a.counter(self.loads);
        a.counter(self.stores);
        a.counter(self.capLoads);
        a.counter(self.capStores);
        a.counter(self.traps_);
        return a.ok();
    };
    const auto part = [&image](const char *name, auto &component) {
        return image.section(name, [&](auto &a) {
            a.part(component);
            return a.ok();
        });
    };
    // Config first, so a mismatch is refused before any state changes.
    return image.section("config", config) && image.section("cpu", cpu) &&
           part("sram", self.memory_.sram()) &&
           part("bitmap", self.bitmap_) && part("revoker", self.bgRevoker_) &&
           part("filter", self.filter_) && part("console", self.console_) &&
           part("timer", self.timer_) && part("bus", self.bus_);
}

void
Machine::save(snapshot::SnapshotWriter &out) const
{
    transferImage(*this, out);
}

bool
Machine::restore(const snapshot::SnapshotReader &in)
{
    if (!in.valid()) {
        return false;
    }
    static const char *const kSections[] = {
        "config", "cpu",     "sram",  "bitmap",
        "revoker", "filter", "console", "timer", "bus",
    };
    for (const char *name : kSections) {
        if (!in.hasSection(name)) {
            return false;
        }
    }
    const bool restored = transferImage(*this, in);
    // SRAM contents changed under the decode cache.
    invalidateDecode(mem::kSramBase, config_.sramSize);
    return restored;
}

snapshot::SnapshotImage
Machine::saveImage() const
{
    snapshot::SnapshotWriter out;
    save(out);
    return out.finish();
}

bool
Machine::restoreImage(const snapshot::SnapshotImage &image)
{
    snapshot::SnapshotReader reader(image);
    return restore(reader);
}

uint32_t
Machine::stateDigest() const
{
    snapshot::SnapshotWriter out;
    save(out);
    return out.imageCrc();
}

} // namespace cheriot::sim
