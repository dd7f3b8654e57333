#include "revoker/background_revoker.h"

#include "cap/capability.h"
#include "fault/fault_injector.h"
#include "util/log.h"

namespace cheriot::revoker
{

BackgroundRevoker::BackgroundRevoker(mem::TaggedMemory &sram,
                                     RevocationBitmap &bitmap,
                                     mem::BusWidth busWidth)
    : sram_(sram), bitmap_(bitmap), busWidth_(busWidth), stats_("hw_revoker")
{
    stats_.registerCounter("wordsExamined", wordsExamined);
    stats_.registerCounter("tagsInvalidated", tagsInvalidated);
    stats_.registerCounter("snoopReloads", snoopReloads);
    stats_.registerCounter("portCycles", portCycles);
    stats_.registerCounter("stallCycles", stallCycles);
    stats_.registerCounter("kicksReceived", kicksReceived);
    stats_.registerCounter("sweepsCompleted", sweepsCompleted);
}

bool
BackgroundRevoker::takeCompletionIrq()
{
    const bool pending = irqPending_;
    irqPending_ = false;
    return pending;
}

void
BackgroundRevoker::startSweep()
{
    if (sweeping()) {
        return; // Kick during a sweep has no effect.
    }
    // Clamp the window to SRAM: the engine can only revoke in the
    // memory it sweeps, and a window with no SRAM in it starts nothing.
    const uint32_t start = std::max(startReg_, sram_.base());
    if (start >= sweepEnd()) {
        return;
    }
    ++epoch_; // Odd: sweeping.
    cursor_ = start & ~7u;
    slots_[0] = Slot{};
    slots_[1] = Slot{};
}

void
BackgroundRevoker::finishSweep()
{
    if (injector_ != nullptr && injector_->suppressEpochIncrement()) {
        // Stuck-epoch fault: the sweep ran dry but the completion
        // never becomes visible. Persists until software kicks the
        // engine (tick() retries this path every free cycle).
        return;
    }
    ++epoch_; // Even: idle.
    sweepsCompleted++;
    if (completionInterrupt_) {
        irqPending_ = true;
    }
}

bool
BackgroundRevoker::issueNextLoad()
{
    if (cursor_ >= sweepEnd()) {
        return false;
    }
    for (Slot &slot : slots_) {
        if (slot.valid) {
            continue;
        }
        slot.valid = true;
        slot.addr = cursor_;
        slot.loaded = false;
        slot.needsWriteback = false;
        unsigned beats = mem::capBeats(busWidth_);
        if (skipSecondHalf_ && beats == 2) {
            // Peek at the first half's micro-tag: if it is already
            // clear the architectural tag must be zero and the second
            // half-load can be skipped.
            const auto raw = sram_.readCap(slot.addr);
            if (!raw.halfTag0) {
                beats = 1;
            }
        }
        slot.beatsLeft = beats;
        cursor_ += cap::kCapabilitySize;
        return true;
    }
    return false;
}

void
BackgroundRevoker::examine(Slot &slot)
{
    const auto raw = sram_.readCap(slot.addr);
    if (raw.tag) {
        const auto loaded = cap::Capability::fromBits(raw.bits, raw.tag);
        if (bitmap_.isRevoked(loaded.base())) {
            slot.needsWriteback = true;
            return;
        }
    }
    // Tag already clear, or capability not stale: nothing to write.
    slot.valid = false;
    wordsExamined++;
}

bool
BackgroundRevoker::tick(bool memPortFree)
{
    if (!sweeping() || !memPortFree) {
        return false;
    }
    if (injector_ != nullptr && injector_->revokerStalled()) {
        // Injected stall: the engine holds its state but makes no
        // progress until kicked (or the stall window expires).
        stallCycles++;
        return false;
    }
    return beat();
}

void
BackgroundRevoker::sweepFreeCycles(uint64_t freeCycles)
{
    if (injector_ != nullptr && injector_->revokerStalled()) {
        stallCycles += freeCycles;
        return;
    }
    const bool epochHeld =
        injector_ != nullptr && injector_->suppressEpochIncrement();
    while (freeCycles > 0 && sweeping()) {
        if (!slots_[0].valid && !slots_[1].valid) {
            freeCycles -= sweepWholeWords(freeCycles);
            if (freeCycles == 0) {
                return;
            }
        }
        // The cycle-by-cycle cases: a word that does not fit the
        // cycles left, a slot a snoop reloaded, and the completion.
        beat();
        --freeCycles;
        if (epochHeld && drained()) {
            // A stuck epoch holds the completion: every further beat
            // retries finishSweep() and changes nothing.
            return;
        }
    }
}

uint64_t
BackgroundRevoker::sweepWholeWords(uint64_t budget)
{
    // No store lands inside a window, so each word's fate is fixed by
    // SRAM and the bitmap as they stand now. beat() would issue every
    // word into slot 0 (the first free slot), load it, examine it and,
    // if its base is revoked, spend the next cycle on the writeback.
    const uint32_t end = sweepEnd();
    const unsigned fullBeats = mem::capBeats(busWidth_);
    // The second-half skip peeks at the word when it issues: a second
    // capability read besides the one that examines it.
    const bool peeks = skipSecondHalf_ && fullBeats == 2;
    uint64_t used = 0;
    uint64_t words = 0;
    uint64_t tagged = 0;
    uint64_t revoked = 0;
    bool lastRevoked = false;
    while (cursor_ < end) {
        const mem::RawCapBits raw = sram_.peekCap(cursor_);
        const unsigned beats = peeks && !raw.halfTag0 ? 1 : fullBeats;
        const bool stale =
            raw.tag && bitmap_.peekRevoked(
                           cap::Capability::fromBits(raw.bits, true).base());
        const unsigned cost = beats + (stale ? 1 : 0);
        if (cost > budget - used) {
            break;
        }
        if (stale) {
            sram_.clearCapTag(cursor_);
            ++revoked;
        }
        used += cost;
        ++words;
        tagged += raw.tag ? 1 : 0;
        lastRevoked = stale;
        cursor_ += cap::kCapabilitySize;
    }
    if (words == 0) {
        return 0;
    }
    sram_.capReads += words * (peeks ? 2 : 1);
    bitmap_.lookups += tagged;
    wordsExamined += words;
    tagsInvalidated += revoked;
    portCycles += used;
    // Retired slots keep their fields, and those are serialized.
    Slot &slot = slots_[0];
    slot.addr = cursor_ - cap::kCapabilitySize;
    slot.beatsLeft = 0;
    slot.loaded = true;
    slot.needsWriteback = lastRevoked;
    return used;
}

bool
BackgroundRevoker::beat()
{
    // Priority 1: writebacks. A single tag-clearing write suffices
    // because the architectural tag is the AND of the micro-tags.
    for (Slot &slot : slots_) {
        if (slot.valid && slot.needsWriteback) {
            sram_.clearCapTag(slot.addr);
            tagsInvalidated++;
            wordsExamined++;
            slot.valid = false;
            portCycles++;
            return true;
        }
    }

    // Priority 2: advance a pending load by one beat. One port, one
    // beat per cycle: the other slot's first beat waits.
    if (loadBeat()) {
        return true;
    }

    // Priority 3: issue the next load; its first beat is consumed
    // this cycle.
    if (issueNextLoad() && loadBeat()) {
        return true;
    }

    // Nothing left in flight and no more words: the sweep is done.
    if (drained()) {
        finishSweep();
    }
    return false;
}

bool
BackgroundRevoker::loadBeat()
{
    for (Slot &slot : slots_) {
        if (slot.valid && !slot.loaded && slot.beatsLeft > 0) {
            slot.beatsLeft--;
            portCycles++;
            if (slot.beatsLeft == 0) {
                slot.loaded = true;
                examine(slot);
            }
            return true;
        }
    }
    return false;
}

void
BackgroundRevoker::reloadSnooped(uint32_t addr, uint32_t bytes)
{
    const uint32_t granule = addr & ~7u;
    const uint32_t lastGranule = (addr + bytes - 1) & ~7u;
    for (Slot &slot : slots_) {
        if (slot.valid && slot.addr >= granule && slot.addr <= lastGranule) {
            // Word changed under us: restart its load.
            slot.loaded = false;
            slot.needsWriteback = false;
            slot.beatsLeft = mem::capBeats(busWidth_);
            snoopReloads++;
        }
    }
}

uint32_t
BackgroundRevoker::read32(uint32_t offset)
{
    switch (offset) {
      case 0x0: return startReg_;
      case 0x4: return endReg_;
      case 0x8: return epoch_;
      default: return 0; // kick is write-only; the rest unassigned.
    }
}

void
BackgroundRevoker::write32(uint32_t offset, uint32_t value)
{
    switch (offset) {
      case 0x0:
        startReg_ = value;
        break;
      case 0x4:
        endReg_ = value;
        break;
      case 0xc:
        kicksReceived++;
        if (injector_ != nullptr) {
            // A kick resets the engine's control path, clearing any
            // injected stall or stuck-epoch condition.
            injector_->revokerKicked();
        }
        startSweep();
        break;
      default:
        break; // epoch is read-only; the rest unassigned.
    }
}

} // namespace cheriot::revoker
