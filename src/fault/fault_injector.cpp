#include "fault/fault_injector.h"

#include "mem/bus.h"
#include "mem/tagged_memory.h"
#include "revoker/revocation_bitmap.h"
#include "sim/csr.h"
#include "util/log.h"

#include <algorithm>

namespace cheriot::fault
{

namespace
{

/** Causes a glitched core can plausibly raise spuriously. */
constexpr sim::TrapCause kSpuriousCauses[] = {
    sim::TrapCause::CheriTagViolation,
    sim::TrapCause::CheriBoundsViolation,
    sim::TrapCause::CheriPermViolation,
    sim::TrapCause::LoadAccessFault,
    sim::TrapCause::IllegalInstruction,
};
constexpr uint32_t kSpuriousCauseCount =
    sizeof(kSpuriousCauses) / sizeof(kSpuriousCauses[0]);

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::TagClear: return "tag-clear";
      case FaultSite::DataFlip: return "data-flip";
      case FaultSite::BusDrop: return "bus-drop";
      case FaultSite::BusDelay: return "bus-delay";
      case FaultSite::RevokerStall: return "revoker-stall";
      case FaultSite::RevokerStuckEpoch: return "stuck-epoch";
      case FaultSite::BitmapCorrupt: return "bitmap-corrupt";
      case FaultSite::SpuriousFault: return "spurious-fault";
      case FaultSite::FaultStorm: return "fault-storm";
      case FaultSite::MallocStall: return "malloc-stall";
      case FaultSite::NicDmaCorrupt: return "nic-dma-corrupt";
      case FaultSite::NicRingCorrupt: return "nic-ring-corrupt";
      case FaultSite::NicLinkDrop: return "nic-link-drop";
      case FaultSite::SwitchPortStall: return "switch-port-stall";
      case FaultSite::FlowStateCorrupt: return "flow-state-corrupt";
      case FaultSite::BrokerQueueCorrupt: return "broker-queue-corrupt";
      case FaultSite::CapTableCorrupt: return "cap-table-corrupt";
      case FaultSite::kCount: break;
    }
    return "unknown";
}

bool
isCycleTriggered(FaultSite site)
{
    switch (site) {
      case FaultSite::TagClear:
      case FaultSite::DataFlip:
      case FaultSite::RevokerStall:
      case FaultSite::RevokerStuckEpoch:
      case FaultSite::BitmapCorrupt:
      case FaultSite::SpuriousFault:
      case FaultSite::FaultStorm:
        return true;
      case FaultSite::BusDrop:
      case FaultSite::BusDelay:
      case FaultSite::MallocStall:
      case FaultSite::NicDmaCorrupt:
      case FaultSite::NicRingCorrupt:
      case FaultSite::NicLinkDrop:
      case FaultSite::SwitchPortStall:
      case FaultSite::FlowStateCorrupt:
      case FaultSite::BrokerQueueCorrupt:
      case FaultSite::CapTableCorrupt:
      case FaultSite::kCount:
        break;
    }
    return false;
}

FaultInjector::FaultInjector(uint64_t seed)
    : seed_(seed), selector_(Rng::forStream(seed, kFaultSiteCount))
{
    for (uint32_t i = 0; i < kFaultSiteCount; ++i) {
        streams_[i] = Rng::forStream(seed, i);
    }
    stats_.registerCounter("faultsInjected", faultsInjected);
    stats_.registerCounter("tagsCleared", tagsCleared);
    stats_.registerCounter("bitsFlipped", bitsFlipped);
    stats_.registerCounter("busDrops", busDrops);
    stats_.registerCounter("busDelays", busDelays);
    stats_.registerCounter("revokerStalls", revokerStalls);
    stats_.registerCounter("mallocStalls", mallocStalls);
    stats_.registerCounter("epochsStuck", epochsStuck);
    stats_.registerCounter("bitmapBitsPainted", bitmapBitsPainted);
    stats_.registerCounter("spuriousFaults", spuriousFaults);
    stats_.registerCounter("kicksObserved", kicksObserved);
    stats_.registerCounter("nicPayloadFlips", nicPayloadFlips);
    stats_.registerCounter("nicDescriptorFlips", nicDescriptorFlips);
    stats_.registerCounter("nicLinkDrops", nicLinkDrops);
    stats_.registerCounter("switchPortStalls", switchPortStalls);
    stats_.registerCounter("flowStateFlips", flowStateFlips);
    stats_.registerCounter("brokerQueueFlips", brokerQueueFlips);
    stats_.registerCounter("capTableFlips", capTableFlips);
    stats_.registerCounter("safetyViolations", safetyViolations);
}

FaultPlan
FaultInjector::planNext(uint64_t horizonCycles, uint32_t memBase,
                        uint32_t memSize)
{
    FaultPlan plan;
    plan.site = static_cast<FaultSite>(selector_.below(kFaultSiteCount));
    Rng &rng = streams_[static_cast<uint32_t>(plan.site)];

    // Land the trigger in the middle 80% of the horizon so the fault
    // hits a warmed-up system but leaves time to observe recovery.
    const uint64_t lo = horizonCycles / 10;
    const uint64_t span = horizonCycles - 2 * lo;
    plan.triggerCycle = lo + rng.next64() % (span == 0 ? 1 : span);

    switch (plan.site) {
      case FaultSite::TagClear:
      case FaultSite::DataFlip:
        plan.addr = memBase + (rng.below(memSize) & ~7u);
        plan.param = rng.below(64); // Bit index within the granule.
        break;
      case FaultSite::BusDrop:
        // Burst length never exceeds the bus retry budget, modelling
        // transient glitches; a permanently dead bus is out of scope.
        plan.triggerTransaction = rng.next64() % 4096;
        plan.param = 1 + rng.below(mem::Bus::kMaxRetries);
        break;
      case FaultSite::BusDelay:
        plan.triggerTransaction = rng.next64() % 4096;
        plan.param = 1 + rng.below(16); // Extra beats of latency.
        break;
      case FaultSite::RevokerStall:
        plan.param = 1024 + rng.below(64 * 1024); // Stall duration.
        break;
      case FaultSite::MallocStall:
        // Stall windows from "a hiccup the backoff absorbs" to "far
        // beyond the backoff budget" so both the recovered-retry and
        // the bounded-timeout → OutOfMemory paths get exercised.
        plan.param = 4096 + rng.below(512 * 1024);
        break;
      case FaultSite::NicDmaCorrupt:
      case FaultSite::NicRingCorrupt:
        // Fires on the Nth packet delivery; the short count keeps the
        // trigger inside a campaign run's modest packet budget. The
        // param picks the granule and bit at delivery time.
        plan.triggerTransaction = rng.below(16);
        plan.param = static_cast<uint32_t>(rng.next64());
        break;
      case FaultSite::NicLinkDrop:
        // Fires on the Nth frame arrival; a short burst, so a
        // retransmitting sender always gets through eventually.
        plan.triggerTransaction = rng.below(64);
        plan.param = 1 + rng.below(4);
        break;
      case FaultSite::SwitchPortStall:
        // Fires on the Nth fabric tick; addr selects the port
        // (reduced modulo the port count at delivery).
        plan.triggerTransaction = rng.below(256);
        plan.addr = rng.next();
        plan.param = 1 + rng.below(32); // Stall window in ticks.
        break;
      case FaultSite::FlowStateCorrupt:
      case FaultSite::BrokerQueueCorrupt:
      case FaultSite::CapTableCorrupt:
        // Fires on the Nth flow-table / broker-queue / cap-table
        // touch; the param is the scramble pattern applied to the
        // targeted entry.
        plan.triggerTransaction = rng.below(32);
        plan.param = static_cast<uint32_t>(rng.next64() | 1u);
        break;
      case FaultSite::RevokerStuckEpoch:
        break;
      case FaultSite::BitmapCorrupt:
        plan.addr = memBase + (rng.below(memSize) & ~7u);
        break;
      case FaultSite::SpuriousFault:
        plan.param = rng.below(kSpuriousCauseCount);
        break;
      case FaultSite::FaultStorm:
        // Burst length × cause: a storm of identical spurious traps.
        plan.param = (rng.below(kSpuriousCauseCount) << 8) |
                     (4 + rng.below(12));
        break;
      case FaultSite::kCount:
        break;
    }
    return plan;
}

void
FaultInjector::arm(const FaultPlan &plan)
{
    plan_ = plan;
    armed_ = true;
    fired_ = false;
    updateTriggers();
}

void
FaultInjector::updateTriggers()
{
    nextEvent_ = stalled_ ? stallDeadline_ : kNever;
    busTrigger_ = kNever;
    if (!armed_ || fired_) {
        return;
    }
    if (isCycleTriggered(plan_.site)) {
        nextEvent_ = std::min(nextEvent_, plan_.triggerCycle);
    } else if (plan_.site == FaultSite::BusDrop ||
               plan_.site == FaultSite::BusDelay) {
        busTrigger_ = plan_.triggerTransaction;
    }
}

void
FaultInjector::fire(uint64_t nowCycle)
{
    switch (plan_.site) {
      case FaultSite::TagClear:
        if (sram_ != nullptr) {
            sram_->injectTagClear(plan_.addr);
            tagsCleared++;
        }
        break;
      case FaultSite::DataFlip:
        if (sram_ != nullptr) {
            flipBit(plan_.addr, plan_.param);
            bitsFlipped++;
        }
        break;
      case FaultSite::RevokerStall:
        stalled_ = true;
        stallDeadline_ = nowCycle + plan_.param;
        revokerStalls++;
        break;
      case FaultSite::RevokerStuckEpoch:
        epochStuck_ = true;
        epochsStuck++;
        break;
      case FaultSite::BitmapCorrupt:
        if (bitmap_ != nullptr && bitmap_->covers(plan_.addr)) {
            // Fail-safe direction only: painting a bit over-revokes
            // (availability fault); clearing one would need ECC and
            // is out of the modelled threat.
            bitmap_->setRange(plan_.addr, 1);
            bitmapBitsPainted++;
        }
        break;
      case FaultSite::SpuriousFault:
        pendingSpurious_ = 1;
        spuriousCause_ = static_cast<uint32_t>(
            kSpuriousCauses[plan_.param % kSpuriousCauseCount]);
        break;
      case FaultSite::FaultStorm:
        pendingSpurious_ = plan_.param & 0xff;
        spuriousCause_ = static_cast<uint32_t>(
            kSpuriousCauses[(plan_.param >> 8) % kSpuriousCauseCount]);
        break;
      case FaultSite::BusDrop:
      case FaultSite::BusDelay:
      case FaultSite::MallocStall:
      case FaultSite::NicDmaCorrupt:
      case FaultSite::NicRingCorrupt:
      case FaultSite::NicLinkDrop:
      case FaultSite::SwitchPortStall:
      case FaultSite::FlowStateCorrupt:
      case FaultSite::BrokerQueueCorrupt:
      case FaultSite::CapTableCorrupt:
      case FaultSite::kCount:
        break; // Event-triggered: delivered by their own hooks.
    }
}

void
FaultInjector::tick(uint64_t nowCycle)
{
    // Backstop: a stall window expires by itself even if nothing
    // kicks the engine, so an idle system cannot wedge forever.
    if (stalled_ && nowCycle >= stallDeadline_) {
        stalled_ = false;
    }
    if (fireEvent(plan_.site, isCycleTriggered(plan_.site) &&
                                  nowCycle >= plan_.triggerCycle)) {
        fire(nowCycle);
    }
    updateTriggers();
}

void
FaultInjector::flipBit(uint32_t addr, uint32_t bit)
{
    // Poison before the flip: the granule counts as disturbed whether
    // or not the fail-safe micro-tag clear applies.
    if (sram_->tagAt(addr)) {
        poisoned_.insert(addr & ~7u);
    }
    sram_->injectDataFlip(addr, bit, /*failSafe=*/!allowForgery_);
}

bool
FaultInjector::fireEvent(FaultSite site, bool reached)
{
    if (!armed_ || fired_ || plan_.site != site || !reached) {
        return false;
    }
    fired_ = true;
    faultsInjected++;
    return true;
}

uint32_t
FaultInjector::busFault(uint32_t *extraBeats)
{
    uint32_t drops = 0;
    if (fireEvent(FaultSite::BusDrop, true)) {
        busDrops += plan_.param;
        drops = plan_.param;
    } else if (fireEvent(FaultSite::BusDelay, true)) {
        busDelays++;
        *extraBeats += plan_.param;
    }
    updateTriggers();
    return drops;
}

void
FaultInjector::mallocBackoffStarted(uint64_t nowCycle)
{
    if (!fireEvent(FaultSite::MallocStall, true)) {
        return;
    }
    mallocStalls++;
    revokerStalls++;
    stalled_ = true;
    stallDeadline_ = nowCycle + plan_.param;
    updateTriggers();
}

void
FaultInjector::nicDeliveryStarting(uint32_t descAddr)
{
    const uint64_t ordinal = nicDeliveries_++;
    if (!fireEvent(FaultSite::NicRingCorrupt,
                   sram_ != nullptr &&
                       ordinal >= plan_.triggerTransaction)) {
        return;
    }
    nicDescriptorFlips++;
    // The descriptor is exactly one granule; flip a bit of it right
    // before the device fetches it.
    flipBit(descAddr, plan_.param % 64);
}

void
FaultInjector::nicDmaLanded(uint32_t addr, uint32_t bytes)
{
    // The delivery count nicDeliveryStarting has already bumped.
    if (!fireEvent(FaultSite::NicDmaCorrupt,
                   sram_ != nullptr && bytes != 0 &&
                       nicDeliveries_ > plan_.triggerTransaction)) {
        return;
    }
    nicPayloadFlips++;
    const uint32_t granules = (bytes + 7) / 8;
    flipBit((addr & ~7u) + 8 * (plan_.param % granules),
            (plan_.param >> 8) % 64);
}

bool
FaultInjector::nicLinkFrameArriving()
{
    const uint64_t ordinal = nicArrivals_++;
    if (linkDropBurstLeft_ > 0) {
        linkDropBurstLeft_--;
        nicLinkDrops++;
        return true;
    }
    if (!fireEvent(FaultSite::NicLinkDrop,
                   ordinal >= plan_.triggerTransaction)) {
        return false;
    }
    nicLinkDrops++;
    linkDropBurstLeft_ = plan_.param > 0 ? plan_.param - 1 : 0;
    return true;
}

bool
FaultInjector::switchTick(uint32_t *portSel, uint32_t *stallTicks)
{
    const uint64_t ordinal = switchTicks_++;
    if (!fireEvent(FaultSite::SwitchPortStall,
                   ordinal >= plan_.triggerTransaction)) {
        return false;
    }
    switchPortStalls++;
    *portSel = plan_.addr;
    *stallTicks = plan_.param;
    return true;
}

bool
FaultInjector::scrambleOnTouch(FaultSite site, uint64_t *touches,
                               Counter &flips, uint32_t *param)
{
    const uint64_t ordinal = (*touches)++;
    if (!fireEvent(site, ordinal >= plan_.triggerTransaction)) {
        return false;
    }
    flips++;
    *param = plan_.param;
    return true;
}

bool
FaultInjector::flowStateTouched(uint32_t *param)
{
    return scrambleOnTouch(FaultSite::FlowStateCorrupt, &flowTouches_,
                           flowStateFlips, param);
}

bool
FaultInjector::brokerQueueTouched(uint32_t *param)
{
    return scrambleOnTouch(FaultSite::BrokerQueueCorrupt, &brokerTouches_,
                           brokerQueueFlips, param);
}

bool
FaultInjector::capTableTouched(uint32_t *param)
{
    return scrambleOnTouch(FaultSite::CapTableCorrupt, &capTouches_,
                           capTableFlips, param);
}

void
FaultInjector::revokerKicked()
{
    if (stalled_ || epochStuck_) {
        kicksObserved++;
    }
    stalled_ = false;
    epochStuck_ = false;
    updateTriggers();
}

void
FaultInjector::noteSafetyViolation(uint32_t addr)
{
    safetyViolations++;
    warn("fault: tagged capability dereferenced from poisoned granule "
         "0x%08x (memory-safety violation)",
         addr & ~7u);
}

} // namespace cheriot::fault
