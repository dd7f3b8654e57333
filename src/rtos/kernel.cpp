#include "rtos/kernel.h"

#include "cap/sealing.h"
#include "mem/memory_map.h"
#include "rtos/audit.h"
#include "snapshot/serializer.h"
#include "util/log.h"
#include "verify/reach.h"
#include "verify/verifier.h"

#include <cstdlib>

namespace cheriot::rtos
{

using cap::Capability;

// --- HardwareRevokerHandle ---------------------------------------------

uint32_t
HardwareRevokerHandle::epoch() const
{
    // The epoch register is read constantly by the allocator; model
    // it as a register read (the charged accesses happen in
    // requestSweep and the polling loop).
    return guest_.machine().backgroundRevoker().epoch();
}

void
HardwareRevokerHandle::requestSweep()
{
    if (sweepInProgress()) {
        return;
    }
    // Program start/end and kick through the MMIO window.
    guest_.storeWord(mmioCap_, mmioCap_.base() + 0x0, sweepBase_);
    guest_.storeWord(mmioCap_, mmioCap_.base() + 0x4, sweepEnd_);
    guest_.storeWord(mmioCap_, mmioCap_.base() + 0xc, 1);
}

void
HardwareRevokerHandle::waitForCompletion()
{
    // Waiting with a watchdog timeout: a revoker that stops making
    // progress (stalled pipeline, stuck epoch) would otherwise block
    // the allocator forever. After kStallTimeoutPolls the waiter
    // kicks the engine through its MMIO kick register — the reset of
    // the engine's control path — and resumes waiting.
    uint32_t kicks = 0;
    while (sweepInProgress()) {
        uint32_t polls = 0;
        scheduler_.blockUntil([this, &polls] {
            return !sweepInProgress() || ++polls > kStallTimeoutPolls;
        });
        if (!sweepInProgress()) {
            break;
        }
        timeoutKicks++;
        warn("revoker: sweep made no visible progress in %u polls — "
             "kicking the engine (kick #%u)",
             kStallTimeoutPolls, ++kicks);
        guest_.storeWord(mmioCap_, mmioCap_.base() + 0xc, 1);
        if (kicks > 1000) {
            panic("revoker: engine wedged beyond recovery");
        }
    }
}

// --- Kernel -------------------------------------------------------------

Kernel::Kernel(sim::Machine &machine)
    : machine_(machine), guest_(machine), loader_(machine),
      switcher_(guest_), watchdog_(guest_)
{
    // Register save area for the scheduler: it stores whole register
    // files, including local (stack) capabilities, so it needs SL.
    const uint32_t saveBytes =
        Scheduler::kSavedCapRegs * cap::kCapabilitySize;
    const uint32_t saveBase = loader_.allocRegion(saveBytes, 8);
    scheduler_ = std::make_unique<Scheduler>(
        guest_, loader_.dataCap(saveBase, saveBytes, /*storeLocal=*/true));

    // Publish the switcher's counters (and its dynamic
    // per-compartment cycle attribution) to the machine-wide
    // stats registry the debug stub and bench harnesses read.
    switcher_.attachSimStats(machine_.simStats());
}

Kernel::~Kernel() = default;

Compartment &
Kernel::createCompartment(const std::string &name, uint32_t codeSize,
                          uint32_t globalsSize)
{
    const uint32_t codeBase = loader_.allocExactRegion(codeSize, &codeSize);
    const uint32_t globalsBase =
        loader_.allocExactRegion(globalsSize, &globalsSize);
    // Globals capabilities deliberately lack Store-Local (§5.2): a
    // compartment can never capture a stack reference in its globals.
    return adoptCompartment(std::make_unique<Compartment>(
        name, loader_.codeCap(codeBase, codeSize),
        loader_.dataCap(globalsBase, globalsSize, /*storeLocal=*/false)));
}

Thread &
Kernel::createThread(const std::string &name, uint8_t priority,
                     uint32_t stackSize)
{
    const uint32_t stackBase = loader_.allocExactRegion(stackSize, &stackSize);
    // Stacks are local (no GL) and are the only SL-bearing memory.
    Capability stackRoot = loader_.dataCap(stackBase, stackSize,
                                           /*storeLocal=*/true,
                                           /*global=*/false);
    const uint32_t id = static_cast<uint32_t>(threads_.size());
    threads_.push_back(std::make_unique<Thread>(
        id, name, priority, stackBase, stackBase + stackSize, stackRoot));

    // Trusted stack (switcher-private spill area), 8 frames deep.
    const uint32_t tsBytes =
        Switcher::kSavedCaps * cap::kCapabilitySize * 8;
    const uint32_t tsBase = loader_.allocRegion(tsBytes, 8);
    trustedStacks_.push_back(
        loader_.dataCap(tsBase, tsBytes, /*storeLocal=*/true));
    return *threads_.back();
}

Compartment &
Kernel::adoptCompartment(std::unique_ptr<Compartment> c)
{
    c->setAttributionIndex(switcher_.attributionIndex(c->name()));
    compartments_.push_back(std::move(c));
    return *compartments_.back();
}

bool
Kernel::finalizeBoot(std::string *whyNot)
{
    const AuditReport report = auditKernel(*this);
    // §3.1.2 structural boot assertions: every image the loader built
    // satisfies these by construction; adopted or corrupted images
    // are refused here, before any thread runs.
    for (const auto &c : report.compartments) {
        if (c.globalsStoreLocal) {
            if (whyNot != nullptr) {
                *whyNot = "compartment '" + c.name +
                          "': globals capability carries Store-Local "
                          "(stack references could be captured, §5.2)";
            }
            return false;
        }
        if (c.codeWritable) {
            if (whyNot != nullptr) {
                *whyNot = "compartment '" + c.name +
                          "': code capability is writable (W^X)";
            }
            return false;
        }
    }
    // The static sharing lint is a boot assertion like SL/W^X: a
    // writable authority mutable from two domains without channel
    // discipline is a data race no runtime check will catch.
    for (const auto &issue :
         verify::AuthorityReach(report).sharedMutable()) {
        if (whyNot != nullptr) {
            *whyNot = issue.message;
        }
        return false;
    }
    const char *env = std::getenv("CHERIOT_VERIFY_ON_LOAD");
    if (env != nullptr && *env != '\0') {
        const verify::Report vr =
            verify::verifyKernel(*this, verify::Policy::defaultPolicy());
        if (!vr.ok()) {
            if (whyNot != nullptr) {
                *whyNot = vr.toString();
            }
            return false;
        }
    }
    return true;
}

Import
Kernel::importOf(Compartment &compartment, uint32_t exportIndex)
{
    Import import;
    import.compartment = &compartment;
    import.exportIndex = exportIndex;
    return import;
}

void
Kernel::activate(Thread &thread)
{
    machine_.csrs().mshwmb = thread.stackBase();
    machine_.csrs().mshwm = thread.stackTop();
}

CallResult
Kernel::call(Thread &thread, const Import &import, ArgVec args)
{
    if (thread.id() >= trustedStacks_.size()) {
        panic("kernel: thread %u has no trusted stack", thread.id());
    }
    return switcher_.call(*this, thread, import, args,
                          trustedStacks_[thread.id()]);
}

void
Kernel::initHeap(alloc::TemporalMode mode, uint64_t quarantineThreshold)
{
    if (allocator_ != nullptr) {
        fatal("kernel: heap initialised twice");
    }
    const uint32_t heapBase = machine_.heapBase();
    const uint32_t heapSize = machine_.machineConfig().heapSize;

    Capability heapCap = loader_.dataCap(heapBase, heapSize);
    Capability bitmapCap = loader_.mmioCap(
        mem::kRevocationBitmapBase, machine_.revocationBitmap().mmioSize());

    // Sweeps cover every byte of SRAM that can hold capabilities —
    // globals, stacks and heap alike — since stale heap pointers can
    // be stored anywhere.
    const uint32_t sweepBase = mem::kSramBase;
    const uint32_t sweepEnd =
        mem::kSramBase + machine_.machineConfig().sramSize;

    revoker::Revoker *revoker = nullptr;
    if (mode == alloc::TemporalMode::SoftwareRevocation) {
        // The software sweep needs to reload-and-store-back every
        // capability unchanged: full load perms (LG, LM) and SL for
        // stack regions.
        Capability sweepAuth = loader_.dataCap(
            sweepBase, sweepEnd - sweepBase, /*storeLocal=*/true);
        softwareRevoker_ = std::make_unique<revoker::SoftwareRevoker>(
            machine_, sweepAuth, sweepBase, sweepEnd - sweepBase);
        revoker = softwareRevoker_.get();
    } else if (mode == alloc::TemporalMode::HardwareRevocation) {
        Capability revokerMmio = loader_.mmioCap(mem::kRevokerMmioBase,
                                                 mem::kRevokerMmioSize);
        hardwareRevoker_ = std::make_unique<HardwareRevokerHandle>(
            guest_, *scheduler_, revokerMmio, sweepBase, sweepEnd);
        revoker = hardwareRevoker_.get();
    }

    alloc::AllocatorConfig config;
    config.mode = mode;
    config.quarantineThreshold = quarantineThreshold;
    allocator_ = std::make_unique<alloc::HeapAllocator>(
        guest_, heapCap, bitmapCap, revoker, config);

    // Heap-pressure telemetry: a read-only MMIO window over the
    // allocator's health registers (free/quarantined bytes, oldest
    // epoch age, denial counters) so schedulers and admission gates
    // can observe overload without a cross-compartment call.
    heapPressure_ = std::make_unique<HeapPressureDevice>(*allocator_);
    machine_.memory().mmio().map(mem::kHeapPressureMmioBase,
                                 mem::kHeapPressureMmioSize,
                                 heapPressure_.get());
    heapPressureCap_ = loader_.mmioCap(mem::kHeapPressureMmioBase,
                                       mem::kHeapPressureMmioSize);

    // A blocking malloc must not spin on the memory port it is
    // waiting for the revoker to use: each backoff step yields to the
    // idle thread, exactly like the hardware revoker's wait loop.
    allocator_->setBackoffWait([this](uint64_t cycles) {
        scheduler_->contextSwitch();
        scheduler_->runIdle(cycles);
        scheduler_->contextSwitch();
    });

    // The allocator compartment: the sole holder of the bitmap
    // capability, exporting malloc and free.
    allocCompartment_ = &createCompartment("alloc", 2048, 1024);
    allocCompartment_->addMmioImport("revocation-bitmap", bitmapCap);
    const uint32_t mallocIndex = allocCompartment_->addExport(
        {"malloc",
         [this](CompartmentContext &ctx, ArgVec &args) {
             // dlmalloc's activation frame: saved registers and
             // locals spilled to the stack (moves the high-water
             // mark like compiled code would).
             const Capability frame = ctx.stackAlloc(96);
             if (!frame.tag()) {
                 return CallResult::faulted(
                     sim::TrapCause::CheriBoundsViolation);
             }
             ctx.mem.storeWord(frame, frame.base(), args[0].address());
             ctx.mem.storeWord(frame, frame.base() + 88, 0);
             const Capability result =
                 allocator_->malloc(args[0].address());
             return CallResult::ofCap(result);
         },
         /*interruptsDisabled=*/false});
    const uint32_t freeIndex = allocCompartment_->addExport(
        {"free",
         [this](CompartmentContext &ctx, ArgVec &args) {
             const Capability frame = ctx.stackAlloc(80);
             if (!frame.tag()) {
                 return CallResult::faulted(
                     sim::TrapCause::CheriBoundsViolation);
             }
             ctx.mem.storeWord(frame, frame.base(), 0);
             ctx.mem.storeWord(frame, frame.base() + 72, 0);
             const auto result = allocator_->free(args[0]);
             return CallResult::ofInt(static_cast<uint32_t>(result));
         },
         /*interruptsDisabled=*/false});
    const uint32_t claimIndex = allocCompartment_->addExport(
        {"claim",
         [this](CompartmentContext &ctx, ArgVec &args) {
             // Same shape as free: walk the chunk metadata, link a
             // claim record (spilled locals move the high-water mark).
             const Capability frame = ctx.stackAlloc(80);
             if (!frame.tag()) {
                 return CallResult::faulted(
                     sim::TrapCause::CheriBoundsViolation);
             }
             ctx.mem.storeWord(frame, frame.base(), 0);
             ctx.mem.storeWord(frame, frame.base() + 72, 0);
             const auto result = allocator_->claim(args[0]);
             return CallResult::ofInt(static_cast<uint32_t>(result));
         },
         /*interruptsDisabled=*/false});
    const uint32_t mallocQuotaIndex = allocCompartment_->addExport(
        {"malloc_quota",
         [this](CompartmentContext &ctx, ArgVec &args) {
             // Same dlmalloc frame as malloc, plus the unseal path.
             const Capability frame = ctx.stackAlloc(96);
             if (!frame.tag()) {
                 return CallResult::faulted(
                     sim::TrapCause::CheriBoundsViolation);
             }
             ctx.mem.storeWord(frame, frame.base(), args[1].address());
             ctx.mem.storeWord(frame, frame.base() + 88, 0);
             alloc::AllocResult res = alloc::AllocResult::Ok;
             const Capability result =
                 mallocSealed(args[0], args[1].address(), &res);
             CallResult out = CallResult::ofCap(result);
             out.second = Capability().withAddress(
                 static_cast<uint32_t>(res));
             return out;
         },
         /*interruptsDisabled=*/false});
    mallocImport_ = importOf(*allocCompartment_, mallocIndex);
    freeImport_ = importOf(*allocCompartment_, freeIndex);
    claimImport_ = importOf(*allocCompartment_, claimIndex);
    mallocQuotaImport_ = importOf(*allocCompartment_, mallocQuotaIndex);
}

Capability
Kernel::malloc(Thread &thread, uint32_t size)
{
    if (allocator_ == nullptr) {
        panic("kernel: malloc before initHeap");
    }
    ArgVec args = ArgVec::of({Capability().withAddress(size)});
    const CallResult result = call(thread, mallocImport_, args);
    return result.ok() ? result.value : Capability();
}

alloc::HeapAllocator::FreeResult
Kernel::free(Thread &thread, const Capability &ptr)
{
    if (allocator_ == nullptr) {
        panic("kernel: free before initHeap");
    }
    ArgVec args = ArgVec::of({ptr});
    const CallResult result = call(thread, freeImport_, args);
    if (!result.ok()) {
        return alloc::HeapAllocator::FreeResult::InvalidCap;
    }
    return static_cast<alloc::HeapAllocator::FreeResult>(
        result.value.address());
}

alloc::HeapAllocator::FreeResult
Kernel::claim(Thread &thread, const Capability &ptr)
{
    if (allocator_ == nullptr) {
        panic("kernel: claim before initHeap");
    }
    ArgVec args = ArgVec::of({ptr});
    const CallResult result = call(thread, claimImport_, args);
    if (!result.ok()) {
        return alloc::HeapAllocator::FreeResult::InvalidCap;
    }
    return static_cast<alloc::HeapAllocator::FreeResult>(
        result.value.address());
}

TokenLibrary &
Kernel::tokenLibrary()
{
    if (allocator_ == nullptr) {
        panic("kernel: token library before initHeap");
    }
    if (tokenLibrary_ == nullptr) {
        // Lazily bootstrapped on first use so systems that never mint
        // tokens keep their exact historical heap layout.
        tokenLibrary_ = std::make_unique<TokenLibrary>(
            guest_, *allocator_, loader_.sealerFor(cap::kOtypeToken));
        allocKey_ = tokenLibrary_->createKey();
    }
    return *tokenLibrary_;
}

uint32_t
Kernel::compartmentIndexOf(const Compartment &compartment) const
{
    for (size_t i = 0; i < compartments_.size(); ++i) {
        if (compartments_[i].get() == &compartment) {
            return static_cast<uint32_t>(i);
        }
    }
    panic("kernel: foreign compartment '%s' has no image index",
          compartment.name().c_str());
}

ObjectCapTable &
Kernel::objectCaps()
{
    if (objectCaps_ == nullptr) {
        objectCaps_ = std::make_unique<ObjectCapTable>(
            guest_, tokenLibrary(), *allocator_);
        objectCaps_->attachInjector(machine_.faultInjector());
        scheduler_->setTimeAuthority(objectCaps_.get());
        watchdog_.setMonitorAuthority(objectCaps_.get());
    }
    return *objectCaps_;
}

Capability
Kernel::mintTimeCap(Compartment &owner, uint64_t beginSlot,
                    uint64_t endSlot)
{
    return objectCaps().mintTime(compartmentIndexOf(owner), beginSlot,
                                 endSlot);
}

Capability
Kernel::mintChannelCap(Compartment &owner,
                       const Capability &queueHandle, bool canSend,
                       bool canReceive)
{
    return objectCaps().mintChannel(compartmentIndexOf(owner),
                                    queueHandle, canSend, canReceive);
}

Capability
Kernel::mintMonitorCap(Compartment &owner, Compartment &target)
{
    return objectCaps().mintMonitor(compartmentIndexOf(owner),
                                    compartmentIndexOf(target));
}

CapResult
Kernel::transferObjectCap(const Capability &token, Compartment &newOwner)
{
    return objectCaps().transfer(token, compartmentIndexOf(newOwner));
}

CapResult
Kernel::requestQuarantine(const Capability &monitorCap,
                          Compartment &target)
{
    return watchdog_.requestQuarantine(monitorCap, target,
                                       compartmentIndexOf(target),
                                       machine_.cycles());
}

CapResult
Kernel::requestRestart(const Capability &monitorCap, Compartment &target)
{
    return watchdog_.requestRestart(monitorCap, target,
                                    compartmentIndexOf(target));
}

Capability
Kernel::mintAllocatorCapability(Compartment &owner, uint64_t limitBytes)
{
    TokenLibrary &tokens = tokenLibrary();
    // The sealed record names the owner by position: a restore (same
    // deterministic boot) resolves it to the same compartment.
    const uint32_t ownerIndex = compartmentIndexOf(owner);
    const alloc::QuotaId id = allocator_->quota().create(limitBytes);
    // The record itself is kernel bookkeeping: unmetered.
    const Capability record = allocator_->malloc(kAllocCapRecordSize);
    if (!record.tag()) {
        panic("kernel: heap exhausted while minting an allocator "
              "capability at boot");
    }
    guest_.storeWord(record, record.base() + 0, kAllocCapMagic);
    guest_.storeWord(record, record.base() + 4, id);
    guest_.storeWord(record, record.base() + 8, ownerIndex);
    guest_.storeWord(record, record.base() + 12,
                     static_cast<uint32_t>(limitBytes));
    const Capability token = tokens.seal(allocKey_, record);
    if (!token.tag()) {
        panic("kernel: sealing an allocator capability failed");
    }
    return token;
}

Capability
Kernel::mallocSealed(const Capability &token, uint32_t size,
                     alloc::AllocResult *out)
{
    alloc::AllocResult scratch = alloc::AllocResult::Ok;
    alloc::AllocResult &res = out != nullptr ? *out : scratch;
    res = alloc::AllocResult::InvalidCapability;
    if (tokenLibrary_ == nullptr) {
        return Capability();
    }
    const Capability record = tokenLibrary_->unseal(allocKey_, token);
    if (!record.tag() ||
        guest_.loadWord(record, record.base()) != kAllocCapMagic) {
        return Capability();
    }
    const uint32_t quotaId = guest_.loadWord(record, record.base() + 4);
    const uint32_t ownerIndex =
        guest_.loadWord(record, record.base() + 8);
    if (ownerIndex >= compartments_.size() ||
        allocator_->quota().entry(quotaId) == nullptr) {
        return Capability();
    }
    Compartment &owner = *compartments_[ownerIndex];
    if (watchdog_.shouldReject(owner, machine_.cycles())) {
        // Quarantined for heap abuse: shed the request before it can
        // touch the allocator (or trigger a revocation sweep).
        res = alloc::AllocResult::Throttled;
        return Capability();
    }
    const Capability result =
        allocator_->mallocCharged(quotaId, size, &res);
    if (res == alloc::AllocResult::QuotaExceeded ||
        res == alloc::AllocResult::OutOfMemory) {
        watchdog_.recordAllocFailure(owner, res, machine_.cycles());
    }
    return result;
}

Capability
Kernel::mallocWith(Thread &thread, const Capability &allocCap,
                   uint32_t size, alloc::AllocResult *result)
{
    if (allocator_ == nullptr) {
        panic("kernel: mallocWith before initHeap");
    }
    ArgVec args =
        ArgVec::of({allocCap, Capability().withAddress(size)});
    const CallResult res = call(thread, mallocQuotaImport_, args);
    if (!res.ok()) {
        // The call itself failed (e.g. the allocator compartment is
        // quarantined): indistinguishable from throttling upstream.
        if (result != nullptr) {
            *result = alloc::AllocResult::Throttled;
        }
        return Capability();
    }
    if (result != nullptr) {
        *result = static_cast<alloc::AllocResult>(res.second.address());
    }
    return res.value;
}

template <class Self, class Archive>
bool
Kernel::transfer(Self &self, Archive &a)
{
    a.expectU32(self.threads_.size());
    for (const auto &thread : self.threads_) {
        a.expectStr(thread->name());
        Thread::transfer(*thread, a);
    }
    a.expectU32(self.compartments_.size());
    for (const auto &compartment : self.compartments_) {
        a.expectStr(compartment->name());
        FaultRecoveryState::transfer(compartment->faultState(), a);
    }
    Watchdog::transfer(self.watchdog_, a);
    Switcher::transfer(self.switcher_, a);
    Scheduler::transfer(*self.scheduler_, a);
    a.expectB(self.softwareRevoker_ != nullptr);
    if (self.softwareRevoker_ != nullptr) {
        revoker::SoftwareRevoker::transfer(*self.softwareRevoker_, a);
    }
    a.expectB(self.hardwareRevoker_ != nullptr);
    if (self.hardwareRevoker_ != nullptr) {
        a.counter(self.hardwareRevoker_->timeoutKicks);
    }
    a.expectB(self.allocator_ != nullptr);
    if (self.allocator_ != nullptr) {
        alloc::HeapAllocator::transfer(*self.allocator_, a);
    }
    bool minted = self.tokenLibrary_ != nullptr;
    a.b(minted);
    if constexpr (Archive::kLoading) {
        // The saving run had minted tokens: their boxes and records
        // are already present in the restored heap image, so only the
        // host-side id counter and the kernel's key handle need to be
        // re-established — never re-mint (that would allocate).
        if ((minted && self.allocator_ == nullptr) ||
            (!minted && self.tokenLibrary_ != nullptr)) {
            a.fail();
        } else if (minted && self.tokenLibrary_ == nullptr && a.ok()) {
            self.tokenLibrary_ = std::make_unique<TokenLibrary>(
                self.guest_, *self.allocator_,
                self.loader_.sealerFor(cap::kOtypeToken));
        }
    }
    if (minted && a.ok()) {
        TokenLibrary::transfer(*self.tokenLibrary_, a);
        a.cap(self.allocKey_);
    }
    // The saving boot created the object-cap table before the
    // snapshot; an identically booted kernel has it too (its records
    // and token boxes already live in the restored heap image). A
    // missing table means a structurally different boot: refuse.
    a.expectB(self.objectCaps_ != nullptr);
    if (self.objectCaps_ != nullptr) {
        ObjectCapTable::transfer(*self.objectCaps_, a);
    }
    return a.ok();
}

void
Kernel::serialize(snapshot::Writer &w) const
{
    transfer(*this, w);
}

bool
Kernel::deserialize(snapshot::Reader &r)
{
    return transfer(*this, r);
}

} // namespace cheriot::rtos
