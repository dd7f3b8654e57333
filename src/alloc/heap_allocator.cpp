#include "alloc/heap_allocator.h"

#include "cap/bounds.h"
#include "fault/fault_injector.h"
#include "sim/machine.h"
#include "util/bits.h"
#include "util/log.h"

#include <algorithm>

namespace cheriot::alloc
{

using cap::Capability;

const char *
temporalModeName(TemporalMode mode)
{
    switch (mode) {
      case TemporalMode::None: return "baseline";
      case TemporalMode::MetadataOnly: return "metadata";
      case TemporalMode::SoftwareRevocation: return "software";
      case TemporalMode::HardwareRevocation: return "hardware";
    }
    return "?";
}

const char *
freeResultName(HeapAllocator::FreeResult result)
{
    switch (result) {
      case HeapAllocator::FreeResult::Ok: return "ok";
      case HeapAllocator::FreeResult::InvalidCap:
        return "invalid-capability";
      case HeapAllocator::FreeResult::NotAllocated:
        return "not-allocated";
      case HeapAllocator::FreeResult::AlreadyFreed:
        return "already-freed";
    }
    return "?";
}

HeapAllocator::HeapAllocator(rtos::GuestContext &guest, Capability heapCap,
                             Capability bitmapCap,
                             const revoker::RevocationBitmap &bitmap,
                             revoker::Revoker *revoker,
                             AllocatorConfig config)
    : guest_(guest), view_(guest, heapCap), freeList_(view_),
      quarantine_(view_), bitmapCap_(bitmapCap),
      bitmapGranule_(bitmap.granule()),
      heapBase_(static_cast<uint32_t>(heapCap.base())),
      heapEnd_(static_cast<uint32_t>(heapCap.top())), revoker_(revoker),
      config_(config)
{
    if ((config.mode == TemporalMode::SoftwareRevocation ||
         config.mode == TemporalMode::HardwareRevocation) &&
        revoker == nullptr) {
        fatal("allocator: %s mode requires a revoker",
              temporalModeName(config.mode));
    }
    if (config_.quarantineThreshold == 0) {
        // The software sweep stops the world, so batch as much freed
        // memory as possible per pass; the background engine costs
        // almost nothing to kick, so start it early and keep more
        // heap headroom to absorb frees while it runs (§3.3.3).
        const uint32_t heapSize = heapEnd_ - heapBase_;
        config_.quarantineThreshold =
            config_.mode == TemporalMode::HardwareRevocation
                ? heapSize / 2
                : heapSize / 4 * 3;
    }

    allocStartBits_.assign(
        ((heapEnd_ - heapBase_) / bitmapGranule_ + 7) / 8, 0);
    internalBits_.assign(allocStartBits_.size(), 0);

    stats_.registerCounter("mallocs", mallocs);
    stats_.registerCounter("frees", frees);
    stats_.registerCounter("failedMallocs", failedMallocs);
    stats_.registerCounter("rejectedFrees", rejectedFrees);
    stats_.registerCounter("sweeps", sweepsTriggered);
    stats_.registerCounter("released", chunksReleased);
    stats_.registerCounter("quotaDenials", quotaDenials);
    stats_.registerCounter("blockedMallocs", blockedMallocs);
    stats_.registerCounter("backoffWaitCycles", backoffWaitCycles);
    stats_.registerCounter("backoffTimeouts", backoffTimeouts);
    stats_.registerCounter("oomReturns", oomReturns);

    // Establish the initial layout: one big free chunk and a
    // permanently in-use zero-size sentinel at the very top, so
    // coalescing never walks off the heap.
    const uint32_t sentinel = heapEnd_ - kChunkOverhead;
    const uint32_t initialSize = sentinel - heapBase_;
    view_.setHead(heapBase_, initialSize | kPinuse);
    view_.setHead(sentinel, kCinuse | kPinuse);
    view_.setPrevFoot(sentinel, initialSize);
    view_.setHead(sentinel, view_.head(sentinel) & ~kPinuse);
    freeList_.insert(heapBase_, initialSize);
}

uint32_t
HeapAllocator::currentEpoch() const
{
    return revoker_ != nullptr ? revoker_->epoch() : 0;
}

bool
HeapAllocator::isAllocStart(uint32_t base) const
{
    const uint32_t index = (base - heapBase_) / bitmapGranule_;
    return (allocStartBits_[index / 8] >> (index % 8)) & 1;
}

void
HeapAllocator::setAllocStart(uint32_t base, bool value)
{
    const uint32_t index = (base - heapBase_) / bitmapGranule_;
    if (value) {
        allocStartBits_[index / 8] |= 1u << (index % 8);
    } else {
        allocStartBits_[index / 8] &= ~(1u << (index % 8));
    }
}

bool
HeapAllocator::isInternal(uint32_t base) const
{
    const uint32_t index = (base - heapBase_) / bitmapGranule_;
    return (internalBits_[index / 8] >> (index % 8)) & 1;
}

void
HeapAllocator::setInternal(uint32_t base, bool value)
{
    const uint32_t index = (base - heapBase_) / bitmapGranule_;
    if (value) {
        internalBits_[index / 8] |= 1u << (index % 8);
    } else {
        internalBits_[index / 8] &= ~(1u << (index % 8));
    }
}

void
HeapAllocator::paintBits(uint32_t addr, uint32_t bytes, bool set)
{
    if (bytes == 0) {
        return;
    }
    // The bitmap is a memory-mapped array of 32-bit words; the
    // allocator reaches it only through its dedicated capability.
    const uint32_t firstBit = (addr - heapBase_) / bitmapGranule_;
    const uint32_t lastBit = (addr + bytes - 1 - heapBase_) / bitmapGranule_;
    uint32_t bitIndex = firstBit;
    while (bitIndex <= lastBit) {
        const uint32_t wordIndex = bitIndex / 32;
        const uint32_t wordAddr = bitmapCap_.base() + wordIndex * 4;
        const uint32_t lo = bitIndex % 32;
        const uint32_t hi = std::min(lastBit - wordIndex * 32, 31u);
        uint32_t mask = (hi == 31 ? ~uint32_t{0} : ((1u << (hi + 1)) - 1));
        mask &= ~((1u << lo) - 1);
        if (mask == ~uint32_t{0}) {
            // Full word: a single store.
            guest_.storeWord(bitmapCap_, wordAddr, set ? mask : 0);
        } else {
            const uint32_t old = guest_.loadWord(bitmapCap_, wordAddr);
            guest_.storeWord(bitmapCap_, wordAddr,
                             set ? (old | mask) : (old & ~mask));
        }
        bitIndex = (wordIndex + 1) * 32;
    }
    guest_.chargeExecution(4); // Index arithmetic.
}

Capability
HeapAllocator::malloc(uint32_t size)
{
    return mallocCharged(kUnmeteredQuota, size, nullptr);
}

uint32_t
HeapAllocator::oldestEpochAge() const
{
    const uint32_t oldest = quarantine_.oldestEpoch();
    if (oldest == ~uint32_t{0}) {
        return 0;
    }
    const uint32_t now = currentEpoch();
    return now > oldest ? now - oldest : 0;
}

void
HeapAllocator::forEachChunk(
    const std::function<void(uint32_t addr, uint32_t size, bool inUse,
                             bool internal)> &cb)
{
    const uint32_t sentinel = heapEnd_ - kChunkOverhead;
    uint32_t chunk = heapBase_;
    while (chunk < sentinel) {
        const uint32_t size = view_.sizeOf(chunk);
        if (size < kMinChunkSize || chunk + size > sentinel) {
            break; // Corrupt boundary tag: stop, don't loop.
        }
        cb(chunk, size, view_.inUse(chunk),
           isInternal(chunk + kPayloadOffset));
        chunk += size;
    }
}

uint32_t
HeapAllocator::reclaimWithBackoff(uint32_t need, uint32_t alignMask)
{
    if (revoker_ == nullptr) {
        return 0;
    }
    // Cheap first: claim whatever a completed sweep already released.
    drainQuarantine();
    uint32_t chunk = freeList_.takeFit(need, alignMask);
    if (chunk != 0 || quarantine_.empty()) {
        return chunk;
    }

    // Blocking path: wait for the oldest quarantine epoch to become
    // releasable. On timeout or a truly exhausted heap the caller
    // sees a recoverable OutOfMemory — never an abort.
    blockedMallocs++;
    (void)backoffUntil([this, &chunk, need, alignMask] {
        chunk = freeList_.takeFit(need, alignMask);
        return chunk != 0;
    });
    return chunk;
}

bool
HeapAllocator::backoffUntil(const std::function<bool()> &satisfied)
{
    sim::Machine &machine = guest_.machine();
    if (fault::FaultInjector *injector = machine.faultInjector()) {
        injector->mallocBackoffStarted(machine.cycles());
    }
    uint64_t wait = config_.backoffInitialCycles;
    uint32_t staleAttempts = 0;
    while (staleAttempts < config_.backoffMaxAttempts) {
        const uint32_t epochBefore = currentEpoch();
        triggerSweep(/*waitForCompletion=*/false);
        if (backoffWait_) {
            backoffWait_(wait);
        } else {
            machine.idle(wait);
        }
        backoffWaitCycles += wait;
        wait = std::min(wait * 2, config_.backoffCapCycles);
        drainQuarantine();
        if (satisfied()) {
            return true;
        }
        if (quarantine_.empty()) {
            // Everything quarantined came back and the condition
            // still fails: revocation has nothing more to give.
            return false;
        }
        staleAttempts =
            currentEpoch() == epochBefore ? staleAttempts + 1 : 0;
        if (staleAttempts == config_.backoffStallEscalation &&
            revoker_->sweepInProgress()) {
            // A frozen epoch with a sweep in flight suggests a wedged
            // engine: escalate to the synchronous waiter, whose
            // timeout kick is the modelled engine-reset path. On
            // success the epoch moves and the loop resumes making
            // progress; the budget expires (recoverable OutOfMemory)
            // only if even that cannot revive it.
            triggerSweep(/*waitForCompletion=*/true);
            drainQuarantine();
            if (satisfied()) {
                return true;
            }
            if (quarantine_.empty()) {
                return false;
            }
        }
    }
    backoffTimeouts++;
    warn("allocator: blocking malloc gave up after %u stale backoff "
         "attempts (epoch frozen at %u, %llu bytes quarantined)",
         config_.backoffMaxAttempts, currentEpoch(),
         static_cast<unsigned long long>(quarantine_.bytes()));
    return false;
}

bool
HeapAllocator::chargeWithBackoff(QuotaId owner, uint32_t need)
{
    if (quota_.charge(owner, need)) {
        return true;
    }
    if (revoker_ == nullptr) {
        return false;
    }
    // The owner's quota may be pinned by its own frees still sitting
    // in quarantine (charged until the memory really returns): drain
    // and wait for revocation before making the denial final.
    drainQuarantine();
    if (quota_.charge(owner, need)) {
        return true;
    }
    if (quarantine_.empty()) {
        return false;
    }
    blockedMallocs++;
    return backoffUntil(
        [this, owner, need] { return quota_.charge(owner, need); });
}

Capability
HeapAllocator::mallocCharged(QuotaId owner, uint32_t size,
                             AllocResult *result)
{
    AllocResult scratch = AllocResult::Ok;
    AllocResult &out = result != nullptr ? *result : scratch;
    out = AllocResult::Ok;
    mallocs++;
    guest_.chargeExecution(24); // Entry, argument checks, size maths.

    if (size == 0) {
        size = 1;
    }
    const uint32_t heapSize = heapEnd_ - heapBase_;
    if (size > heapSize) {
        failedMallocs++;
        out = AllocResult::SizeTooLarge;
        return Capability();
    }

    // CHERIoT sizing: the payload must be exactly representable, so
    // round with CRRL and align the base with CRAM (§3.2.3).
    const uint32_t rawPayload =
        std::max<uint32_t>(alignUp<uint32_t>(size, 8), 16);
    const uint32_t payload =
        static_cast<uint32_t>(cap::representableLength(rawPayload));
    const uint32_t alignMask = cap::representableAlignmentMask(rawPayload);
    const uint32_t need = payload + kChunkOverhead;

    // Quota admission: the full chunk footprint is charged before any
    // heap work; every failure below rolls the charge back. A charge
    // blocked only by the owner's quarantined frees waits for
    // revocation (same backpressure as heap exhaustion).
    if (!chargeWithBackoff(owner, need)) {
        failedMallocs++;
        quotaDenials++;
        out = AllocResult::QuotaExceeded;
        return Capability();
    }

    uint32_t chunk = freeList_.takeFit(need, alignMask);
    if (chunk == 0) {
        chunk = reclaimWithBackoff(need, alignMask);
    }
    if (chunk == 0) {
        quota_.credit(owner, need);
        failedMallocs++;
        oomReturns++;
        out = AllocResult::OutOfMemory;
        return Capability();
    }

    uint32_t chunkSize = view_.sizeOf(chunk);
    const bool prevInUse = view_.prevInUse(chunk);

    // Leading split to satisfy CHERI base alignment.
    const uint32_t align = ~alignMask + 1;
    uint32_t pad = 0;
    if (align > cap::kCapabilitySize) {
        const uint32_t payloadAddr = chunk + kPayloadOffset;
        pad = alignUp(payloadAddr, align) - payloadAddr;
        while (pad != 0 && pad < kMinChunkSize) {
            pad += align;
        }
    }
    if (pad != 0) {
        view_.setHead(chunk, pad | (prevInUse ? kPinuse : 0));
        view_.setPrevFoot(chunk + pad, pad);
        freeList_.insert(chunk, pad);
        chunk += pad;
        chunkSize -= pad;
        view_.setHead(chunk, chunkSize); // PINUSE clear: pad is free.
    }

    // Trailing split.
    if (chunkSize - need >= kMinChunkSize) {
        const uint32_t remainder = chunk + need;
        const uint32_t remainderSize = chunkSize - need;
        view_.setHead(remainder, remainderSize | kPinuse);
        view_.setPrevFoot(remainder + remainderSize, remainderSize);
        // Next chunk's PINUSE stays clear (remainder is free).
        freeList_.insert(remainder, remainderSize);
        chunkSize = need;
    }

    view_.setHead(chunk, chunkSize | kCinuse |
                             (view_.head(chunk) & kPinuse) |
                             (pad != 0 ? 0 : (prevInUse ? kPinuse : 0)));
    const uint32_t nextChunk = chunk + chunkSize;
    view_.setHead(nextChunk, view_.head(nextChunk) | kPinuse);

    // A remainder too small to split back stays part of the chunk;
    // track it so heal audits can tell held slack from a leak.
    if (chunkSize != need) {
        chunkSlack_[chunk] = chunkSize - need;
        slackBytes_ += chunkSize - need;
    }
    if (owner != kUnmeteredQuota) {
        // Charge the slop too, so the release-time credit (which
        // settles the real chunk size) balances exactly.
        quota_.chargeUnchecked(owner, chunkSize - need);
        chunkOwners_[chunk] = owner;
    }

    // Derive the user capability with exact bounds over the payload
    // (spatial safety: no access can reach the header or a
    // neighbour).
    const uint32_t payloadAddr = chunk + kPayloadOffset;
    Capability user = view_.heapCap().withAddress(payloadAddr);
    user = user.withBoundsExact(payload);
    if (!user.tag()) {
        panic("malloc: bounds [0x%08x, +%u) unexpectedly inexact",
              payloadAddr, payload);
    }
    setAllocStart(payloadAddr, true);
    guest_.chargeExecution(8); // CSetAddr + CSetBoundsExact + bookkeeping.
    return user;
}

Capability
HeapAllocator::calloc(uint32_t count, uint32_t size)
{
    const uint64_t total = static_cast<uint64_t>(count) * size;
    if (total > (uint64_t{1} << 31)) {
        failedMallocs++;
        return Capability();
    }
    const Capability ptr = malloc(static_cast<uint32_t>(total));
    if (ptr.tag()) {
        // Freed memory is already zeroed in the temporal modes, but
        // calloc must guarantee it regardless of the chunk's origin.
        guest_.zero(ptr, ptr.base(), static_cast<uint32_t>(ptr.length()));
    }
    return ptr;
}

Capability
HeapAllocator::realloc(const Capability &ptr, uint32_t size)
{
    if (!ptr.tag()) {
        return malloc(size);
    }
    if (size == 0) {
        (void)free(ptr);
        return Capability();
    }
    const Capability fresh = malloc(size);
    if (!fresh.tag()) {
        return Capability(); // Old allocation stays live.
    }
    const uint32_t copyBytes = static_cast<uint32_t>(
        std::min<uint64_t>(ptr.length(), fresh.length()));
    for (uint32_t off = 0; off + 4 <= copyBytes; off += 4) {
        guest_.storeWord(fresh, fresh.base() + off,
                         guest_.loadWord(ptr, ptr.base() + off));
    }
    guest_.chargeExecution(8);
    if (free(ptr) != FreeResult::Ok) {
        // The caller handed us something that was not a live
        // allocation after all; undo the new allocation.
        (void)free(fresh);
        return Capability();
    }
    return fresh;
}

HeapAllocator::FreeResult
HeapAllocator::checkLive(const Capability &ptr, uint32_t *chunkOut)
{
    if (!ptr.tag() || ptr.isSealed()) {
        return FreeResult::InvalidCap;
    }
    const uint32_t base = ptr.base();
    if (base < heapBase_ + kPayloadOffset || base >= heapEnd_ ||
        base % 8 != 0) {
        return FreeResult::InvalidCap;
    }
    const uint32_t chunk = base - kPayloadOffset;
    const uint32_t head = view_.head(chunk);
    const uint32_t size = head & kSizeMask;
    if (!(head & kCinuse) || size < kMinChunkSize ||
        chunk + size > heapEnd_) {
        return FreeResult::NotAllocated;
    }
    // The authoritative liveness record: an allocation must have
    // begun at exactly this base (allocator-private bookkeeping, so
    // fake headers inside user buffers cannot forge it).
    guest_.chargeExecution(3);
    if (!isAllocStart(base) || isInternal(base)) {
        return FreeResult::NotAllocated;
    }
    if (config_.mode != TemporalMode::None) {
        // The revocation bitmap doubles as the freed/partial-object
        // detector (§7.2.2 footnote): painted bits mean this memory
        // is already on its way through quarantine.
        const uint32_t probe = guest_.loadWord(
            bitmapCap_,
            bitmapCap_.base() +
                ((base - heapBase_) / bitmapGranule_ / 32) * 4);
        if (probe & (1u << ((base - heapBase_) / bitmapGranule_ % 32))) {
            return FreeResult::AlreadyFreed;
        }
    }
    *chunkOut = chunk;
    return FreeResult::Ok;
}

uint32_t
HeapAllocator::findClaimRecord(uint32_t chunk, uint32_t *prev)
{
    *prev = 0;
    uint32_t record = claimsHead_;
    uint32_t guard = 0;
    while (record != 0) {
        if (++guard > (heapEnd_ - heapBase_) / 16) {
            panic("allocator: claim list cycle (corruption)");
        }
        guest_.chargeExecution(3);
        if (guest_.loadWord(view_.heapCap(), record) == chunk) {
            return record;
        }
        *prev = record;
        const Capability next =
            guest_.loadCap(view_.heapCap(), record + 8);
        record = next.tag() ? next.address() : 0;
    }
    return 0;
}

void
HeapAllocator::removeClaimRecord(uint32_t record, uint32_t prev)
{
    const Capability next = guest_.loadCap(view_.heapCap(), record + 8);
    if (prev == 0) {
        claimsHead_ = next.tag() ? next.address() : 0;
    } else {
        guest_.storeCap(view_.heapCap(), prev + 8, next);
    }
    // Release the record box itself: lift the internal protection,
    // then free (records carry no claims, so the recursion
    // terminates immediately).
    setInternal(record, false);
    const Capability box = view_.heapCap()
                               .withAddress(record)
                               .withBoundsExact(16);
    if (free(box) != FreeResult::Ok) {
        panic("allocator: claim-record release failed");
    }
}

HeapAllocator::FreeResult
HeapAllocator::claim(const Capability &ptr)
{
    guest_.chargeExecution(16);
    uint32_t chunk = 0;
    const FreeResult live = checkLive(ptr, &chunk);
    if (live != FreeResult::Ok) {
        return live;
    }
    uint32_t prev = 0;
    const uint32_t record = findClaimRecord(chunk, &prev);
    if (record != 0) {
        const uint32_t count =
            guest_.loadWord(view_.heapCap(), record + 4);
        guest_.storeWord(view_.heapCap(), record + 4, count + 1);
        return FreeResult::Ok;
    }
    const Capability box = malloc(16);
    if (!box.tag()) {
        return FreeResult::InvalidCap; // Allocator exhausted.
    }
    setInternal(box.base(), true);
    guest_.storeWord(box, box.base(), chunk);
    guest_.storeWord(box, box.base() + 4, 1);
    guest_.storeCap(box, box.base() + 8,
                    claimsHead_ == 0
                        ? Capability()
                        : view_.heapCap().withAddress(claimsHead_));
    claimsHead_ = box.base();
    return FreeResult::Ok;
}

uint32_t
HeapAllocator::claimCount(const Capability &ptr)
{
    uint32_t chunk = 0;
    if (checkLive(ptr, &chunk) != FreeResult::Ok) {
        return 0;
    }
    uint32_t prev = 0;
    const uint32_t record = findClaimRecord(chunk, &prev);
    return record == 0 ? 0
                       : guest_.loadWord(view_.heapCap(), record + 4);
}

HeapAllocator::FreeResult
HeapAllocator::free(const Capability &ptr)
{
    frees++;
    guest_.chargeExecution(20); // Entry and pointer checks.

    uint32_t chunk = 0;
    const FreeResult live = checkLive(ptr, &chunk);
    if (live != FreeResult::Ok) {
        rejectedFrees++;
        return live;
    }
    const uint32_t base = chunk + kPayloadOffset;
    const uint32_t size = view_.sizeOf(chunk);

    // Claims (heap_claim): each free releases one claim; the memory
    // is only really freed when the last claim drops.
    {
        uint32_t prev = 0;
        const uint32_t record = findClaimRecord(chunk, &prev);
        if (record != 0) {
            const uint32_t count =
                guest_.loadWord(view_.heapCap(), record + 4);
            if (count > 0) {
                guest_.storeWord(view_.heapCap(), record + 4, count - 1);
                if (count == 1) {
                    removeClaimRecord(record, prev);
                }
                return FreeResult::Ok;
            }
        }
    }

    setAllocStart(base, false);

    const uint32_t payloadBytes = size - kChunkOverhead;

    if (config_.mode == TemporalMode::None) {
        // Spatial safety only: straight back to the free lists.
        releaseChunk(chunk, size, /*clearBits=*/false);
        return FreeResult::Ok;
    }

    // Paint the revocation bits, then zero the freed memory (§3.3.1);
    // from here on no capability with a base inside the payload can
    // survive a load.
    paintBits(base, payloadBytes, /*set=*/true);
    guest_.zero(view_.heapCap(), base, payloadBytes);

    if (config_.mode == TemporalMode::MetadataOnly) {
        // Bitmap maintained but no sweeps: reuse immediately (the
        // Table 4 "Metadata" configuration isolates bitmap cost).
        releaseChunk(chunk, size, /*clearBits=*/true);
        return FreeResult::Ok;
    }

    quarantine_.add(chunk, size, currentEpoch());

    if (quarantine_.bytes() >= config_.quarantineThreshold) {
        triggerSweep(/*waitForCompletion=*/false);
        drainQuarantine();
    }
    return FreeResult::Ok;
}

void
HeapAllocator::releaseChunk(uint32_t chunk, uint32_t size, bool clearBits)
{
    chunksReleased++;
    // Settle the quota: only now — with the memory really back on the
    // free lists, after any quarantine hold — does the owner stop
    // paying for it.
    const auto owner = chunkOwners_.find(chunk);
    if (owner != chunkOwners_.end()) {
        quota_.credit(owner->second, size);
        chunkOwners_.erase(owner);
    }
    const auto slack = chunkSlack_.find(chunk);
    if (slack != chunkSlack_.end()) {
        slackBytes_ -= slack->second;
        chunkSlack_.erase(slack);
    }
    if (clearBits) {
        paintBits(chunk + kPayloadOffset, size - kChunkOverhead, false);
    }

    // Coalesce with a free successor.
    const uint32_t sentinel = heapEnd_ - kChunkOverhead;
    uint32_t next = chunk + size;
    if (next < sentinel && !view_.inUse(next)) {
        const uint32_t nextSize = view_.sizeOf(next);
        freeList_.remove(next, nextSize);
        size += nextSize;
    }
    // Coalesce with a free predecessor.
    bool prevInUse = view_.prevInUse(chunk);
    if (!prevInUse) {
        const uint32_t prevSize = view_.prevFoot(chunk);
        const uint32_t prev = chunk - prevSize;
        freeList_.remove(prev, prevSize);
        prevInUse = view_.prevInUse(prev);
        chunk = prev;
        size += prevSize;
    }

    view_.setHead(chunk, size | (prevInUse ? kPinuse : 0));
    const uint32_t after = chunk + size;
    view_.setPrevFoot(after, size);
    view_.setHead(after, view_.head(after) & ~kPinuse);
    freeList_.insert(chunk, size);
}

void
HeapAllocator::drainQuarantine()
{
    quarantine_.drain(currentEpoch(), [this](uint32_t chunk,
                                             uint32_t size) {
        releaseChunk(chunk, size, /*clearBits=*/true);
    });
}

void
HeapAllocator::triggerSweep(bool waitForCompletion)
{
    if (revoker_ == nullptr) {
        return;
    }
    sweepsTriggered++;
    revoker_->requestSweep();
    if (waitForCompletion ||
        config_.mode == TemporalMode::SoftwareRevocation) {
        revoker_->waitForCompletion();
    }
}

void
HeapAllocator::synchronise()
{
    if (revoker_ == nullptr || quarantine_.empty()) {
        return;
    }
    triggerSweep(true);
    drainQuarantine();
}

} // namespace cheriot::alloc
