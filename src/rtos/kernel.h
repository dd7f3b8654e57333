/**
 * @file
 * The RTOS kernel façade: boots the system (loader), owns
 * compartments and threads, wires the switcher and scheduler, and
 * hosts the allocator compartment with its chosen temporal-safety
 * engine.
 */

#ifndef CHERIOT_RTOS_KERNEL_H
#define CHERIOT_RTOS_KERNEL_H

#include "alloc/heap_allocator.h"
#include "revoker/software_revoker.h"
#include "rtos/compartment.h"
#include "rtos/guest_context.h"
#include "rtos/heap_pressure.h"
#include "rtos/loader.h"
#include "rtos/object_cap.h"
#include "rtos/scheduler.h"
#include "rtos/switcher.h"
#include "rtos/thread.h"
#include "rtos/token_library.h"
#include "rtos/watchdog.h"

#include <memory>
#include <vector>

namespace cheriot::rtos
{

/**
 * Revoker interface over the background hardware engine: kicks and
 * polls through its MMIO registers and blocks through the scheduler
 * (context switching to the idle thread between polls, which is when
 * the engine gets the memory port to itself).
 */
class HardwareRevokerHandle : public revoker::Revoker
{
  public:
    HardwareRevokerHandle(GuestContext &guest, Scheduler &scheduler,
                          cap::Capability mmioCap, uint32_t sweepBase,
                          uint32_t sweepEnd)
        : guest_(guest), scheduler_(scheduler), mmioCap_(mmioCap),
          sweepBase_(sweepBase), sweepEnd_(sweepEnd)
    {}

    /** Polls of the completion predicate before the wait loop
     * suspects a wedged engine and kicks it (each poll costs
     * Scheduler::blockUntil's poll window of idle cycles). */
    static constexpr uint32_t kStallTimeoutPolls = 64;

    uint32_t epoch() const override;
    void requestSweep() override;
    void waitForCompletion() override;
    const char *kind() const override { return "hardware"; }

    Counter timeoutKicks; ///< Recovery kicks issued by the waiter.

  private:
    GuestContext &guest_;
    Scheduler &scheduler_;
    cap::Capability mmioCap_;
    uint32_t sweepBase_;
    uint32_t sweepEnd_;
};

class Kernel
{
  public:
    explicit Kernel(sim::Machine &machine);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** @name Access to the subsystems @{ */
    sim::Machine &machine() { return machine_; }
    GuestContext &guest() { return guest_; }
    Loader &loader() { return loader_; }
    Switcher &switcher() { return switcher_; }
    Scheduler &scheduler() { return *scheduler_; }
    Watchdog &watchdog() { return watchdog_; }
    /** Hardware-revoker handle, or null unless HardwareRevocation. */
    HardwareRevokerHandle *hardwareRevoker()
    {
        return hardwareRevoker_.get();
    }
    /** @} */

    /** @name System construction (boot time) @{ */
    Compartment &createCompartment(const std::string &name,
                                   uint32_t codeSize = 4096,
                                   uint32_t globalsSize = 4096);

    Thread &createThread(const std::string &name, uint8_t priority,
                         uint32_t stackSize);

    /** Register an externally constructed compartment verbatim (test
     * seam for building deliberately violating images; the normal
     * path is createCompartment, whose capabilities are always
     * well-formed). */
    Compartment &adoptCompartment(std::unique_ptr<Compartment> c);

    /**
     * Boot-time verification gate, called after the image is fully
     * assembled (compartments, threads, heap). Always runs the
     * §3.1.2 structural boot assertions over the audit manifest —
     * SL-free globals and W^X code for every compartment. When the
     * CHERIOT_VERIFY_ON_LOAD environment variable is set (non-empty),
     * additionally evaluates the default verify policy (MMIO-import
     * rules) and refuses to boot a violating image. Returns false and
     * fills @p whyNot instead of booting a bad image.
     */
    bool finalizeBoot(std::string *whyNot = nullptr);

    /** Resolve an import of @p compartment's export @p index. */
    Import importOf(Compartment &compartment, uint32_t exportIndex);

    /** @name Image introspection (audit support) @{ */
    size_t compartmentCount() const { return compartments_.size(); }
    Compartment &compartmentAt(size_t index)
    {
        return *compartments_.at(index);
    }
    size_t threadCount() const { return threads_.size(); }
    Thread &threadAt(size_t index) { return *threads_.at(index); }
    /** @} */

    /**
     * Initialise the shared heap with the given temporal-safety mode.
     * Creates the allocator compartment (the only holder of the
     * revocation-bitmap capability) and its malloc/free exports.
     */
    void initHeap(alloc::TemporalMode mode,
                  uint64_t quarantineThreshold = 0);

    /** @} */

    /** Make @p thread current: installs its stack base / high-water
     * CSRs. */
    void activate(Thread &thread);

    /** Cross-compartment call on behalf of @p thread. */
    CallResult call(Thread &thread, const Import &import, ArgVec args);

    /** @name Heap services, routed through the allocator compartment
     * as real cross-compartment calls @{ */
    cap::Capability malloc(Thread &thread, uint32_t size);
    alloc::HeapAllocator::FreeResult free(Thread &thread,
                                          const cap::Capability &ptr);
    /** heap_claim: keep @p ptr's allocation alive until a matching
     * free — the zero-copy lending contract between untrusting
     * compartments (the last release quarantines, not the first). */
    alloc::HeapAllocator::FreeResult claim(Thread &thread,
                                           const cap::Capability &ptr);
    /** Direct handle (tests / in-compartment use). */
    alloc::HeapAllocator &allocator() { return *allocator_; }
    bool hasHeap() const { return allocator_ != nullptr; }
    Compartment &allocatorCompartment() { return *allocCompartment_; }
    /** @} */

    /** @name Allocator capabilities (metered heap access)
     * The CHERIoT RTOS meters heap use through sealed *allocator
     * capabilities*: opaque tokens minted at boot, each naming a
     * quota-ledger entry and the compartment it was issued to. A
     * compartment allocates by presenting its token; the kernel
     * unseals it (virtualized sealing via the token library), runs
     * watchdog admission, and charges the quota. @{ */

    /**
     * Mint a sealed allocator capability granting @p owner up to
     * @p limitBytes of live heap. Boot-time API (the token box
     * itself lives in kernel-account heap memory).
     */
    cap::Capability mintAllocatorCapability(Compartment &owner,
                                            uint64_t limitBytes);

    /**
     * Metered malloc on behalf of @p thread: a real cross-compartment
     * call into the allocator compartment presenting @p allocCap.
     * Never aborts — every failure surfaces as an untagged return
     * plus a typed, recoverable @p result (Throttled when the owning
     * compartment is watchdog-quarantined for heap abuse).
     */
    cap::Capability mallocWith(Thread &thread,
                               const cap::Capability &allocCap,
                               uint32_t size,
                               alloc::AllocResult *result = nullptr);

    /** Token library (lazily created on first mint). */
    TokenLibrary &tokenLibrary();

    /** @name Kernel object capabilities (revocable authority)
     * The object-capability table generalizes the sealed-token
     * pattern to schedule slices (Time), queue endpoints (Channel)
     * and quarantine/restart authority (Monitor). Lazily created on
     * first use; creation wires the scheduler's slot gate and the
     * watchdog's monitor admission to the table. @{ */
    ObjectCapTable &objectCaps();
    /** Non-creating view (audit / snapshot). */
    ObjectCapTable *objectCapsIfPresent() { return objectCaps_.get(); }
    const ObjectCapTable *objectCapsIfPresent() const
    {
        return objectCaps_.get();
    }

    /** Position of @p compartment in the image (panics if foreign) —
     * the stable name object-capability records use for owners and
     * targets, resolved identically by a restored boot. */
    uint32_t compartmentIndexOf(const Compartment &compartment) const;

    /** Mint a Time capability covering schedule slots
     * [beginSlot, endSlot) for @p owner. */
    cap::Capability mintTimeCap(Compartment &owner, uint64_t beginSlot,
                                uint64_t endSlot);
    /** Mint a Channel capability wrapping @p queueHandle. */
    cap::Capability mintChannelCap(Compartment &owner,
                                   const cap::Capability &queueHandle,
                                   bool canSend, bool canReceive);
    /** Mint a Monitor capability over @p target for @p owner. */
    cap::Capability mintMonitorCap(Compartment &owner,
                                   Compartment &target);
    /** Move an object capability to @p newOwner's books. */
    CapResult transferObjectCap(const cap::Capability &token,
                                Compartment &newOwner);
    /** Watchdog actions under Monitor-capability authority. @{ */
    CapResult requestQuarantine(const cap::Capability &monitorCap,
                                Compartment &target);
    CapResult requestRestart(const cap::Capability &monitorCap,
                             Compartment &target);
    /** @} */
    /** @} */

    /** Capability over the heap-pressure MMIO window (read-only
     * telemetry for admission control); untagged before initHeap. */
    const cap::Capability &heapPressureCap() const
    {
        return heapPressureCap_;
    }
    /** @} */

    /** @name Snapshot state
     * The kernel's *structure* (compartments, exports, task closures,
     * trusted stacks) is rebuilt by re-running the same deterministic
     * boot sequence; serialize() captures only the dynamic state on
     * top of it — thread register/unwind state, per-compartment fault
     * recovery, watchdog/switcher accounting, scheduler deadlines and
     * allocator metadata mirrors. deserialize() must therefore be
     * called on a kernel booted identically to the one that saved,
     * and verifies the structural fingerprint (counts and names)
     * before restoring. @{ */
    void serialize(snapshot::Writer &w) const;
    bool deserialize(snapshot::Reader &r);
    /** @} */

  private:
    /** The snapshot layout, defined beside the forwarders. */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a);
    sim::Machine &machine_;
    GuestContext guest_;
    Loader loader_;
    Switcher switcher_;
    Watchdog watchdog_;
    std::unique_ptr<Scheduler> scheduler_;

    std::vector<std::unique_ptr<Compartment>> compartments_;
    std::vector<std::unique_ptr<Thread>> threads_;
    std::vector<cap::Capability> trustedStacks_;

    std::unique_ptr<SweepContext> sweepContext_;
    std::unique_ptr<revoker::SoftwareRevoker> softwareRevoker_;
    std::unique_ptr<HardwareRevokerHandle> hardwareRevoker_;
    std::unique_ptr<alloc::HeapAllocator> allocator_;
    Compartment *allocCompartment_ = nullptr;
    Import mallocImport_;
    Import freeImport_;
    Import claimImport_;
    Import mallocQuotaImport_;

    /** Allocator-capability machinery. @{ */
    /** Box discriminator ('aloc'): an allocator-capability payload. */
    static constexpr uint32_t kAllocCapMagic = 0x616c6f63;
    /** Record layout: magic@0, quotaId@4, ownerIndex@8, limit@12. */
    static constexpr uint32_t kAllocCapRecordSize = 16;
    std::unique_ptr<TokenLibrary> tokenLibrary_;
    cap::Capability allocKey_; ///< Sealing key for allocator caps.
    std::unique_ptr<ObjectCapTable> objectCaps_;
    std::unique_ptr<HeapPressureDevice> heapPressure_;
    cap::Capability heapPressureCap_;
    /** Unseal + validate an allocator capability; runs watchdog
     * admission and charges failures. The export body. */
    cap::Capability mallocSealed(const cap::Capability &token,
                                 uint32_t size, alloc::AllocResult *out);
    /** @} */
};

} // namespace cheriot::rtos

#endif // CHERIOT_RTOS_KERNEL_H
