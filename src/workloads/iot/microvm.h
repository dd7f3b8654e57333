/**
 * @file
 * A tiny stack-based bytecode interpreter standing in for the
 * Microvium JavaScript engine of the end-to-end application (paper
 * §7.2.3).
 *
 * Properties preserved from the paper's setup:
 *  - the interpreter runs in its own compartment;
 *  - its object heap is carved from the *shared* temporal-safety-
 *    protected heap: every object allocation is a real malloc, so
 *    "temporal safety guarantees also hold for JavaScript objects
 *    accessed from C code";
 *  - memory is not reused between garbage-collection passes: a GC
 *    frees every object allocated since the previous pass, routing
 *    them through quarantine and revocation;
 *  - the animation program runs every 10 ms.
 *
 * The bytecode is deliberately small (a dozen opcodes) but it is a
 * real interpreter: fetch/decode/dispatch costs cycles, and object
 * field accesses are capability-checked loads/stores.
 */

#ifndef CHERIOT_WORKLOADS_IOT_MICROVM_H
#define CHERIOT_WORKLOADS_IOT_MICROVM_H

#include "rtos/compartment.h"
#include "snapshot/serializer.h"

#include <cstdint>
#include <vector>

namespace cheriot::workloads
{

/** Bytecode operations. */
enum class VmOp : uint8_t
{
    PushImm,    ///< push next byte (zero-extended)
    PushFrame,  ///< push the tick counter
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,        ///< shift left by next byte
    Shr,        ///< shift right by next byte
    Dup,
    Drop,
    NewObject,  ///< allocate an object (size = next byte), push handle
    SetField,   ///< [handle value idx] -> store value at field idx
    GetField,   ///< [handle idx] -> push field value
    SetLed,     ///< [mask] -> set the LED output register
    Loop,       ///< decrement loop counter; branch back by next byte
    PushLoop,   ///< push next byte as the loop counter
    Halt,
};

class MicroVm
{
  public:
    /** Interpreter dispatch overhead per opcode (fetch, decode,
     * operand stack maintenance, bounds-checked dispatch) — a
     * Microvium-like figure for `-Oz` code on an in-order RV32. */
    static constexpr uint32_t kDispatchCycles = 48;

    /** GC period in ticks: all objects allocated since the last pass
     * are freed (Microvium does not reuse between GC passes). */
    static constexpr uint32_t kGcEveryTicks = 32;

    explicit MicroVm(std::vector<uint8_t> program)
        : program_(std::move(program))
    {}

    /** The default LED-animation program. */
    static std::vector<uint8_t> ledAnimationProgram();

    /**
     * Run one 10 ms tick of the program inside the JS compartment.
     * Allocates objects from the shared heap via the kernel's
     * allocator compartment; triggers a GC pass (freeing everything)
     * every kGcEveryTicks ticks.
     *
     * Returns false when the tick could not complete because a heap
     * service failed (allocation denied, free faulted) — the caller
     * surfaces that as a compartment fault so the error-handler /
     * forced-unwind machinery decides what happens, rather than the
     * VM taking the whole simulation down.
     */
    bool tick(rtos::CompartmentContext &ctx);

    uint32_t ledState() const { return ledState_; }
    uint64_t ticks() const { return ticks_; }
    uint64_t objectsAllocated() const { return objectsAllocated_; }
    uint64_t gcPasses() const { return gcPasses_; }
    /** Ticks abandoned because a heap service failed. */
    uint64_t failedTicks() const { return failedTicks_; }

    /** @name Snapshot state (the program bytecode is a boot-time
     * constant; live object handles are capabilities into the
     * snapshotted heap, so they stay valid across restore) @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.seq(self.liveObjects_,
              [](auto &a, auto &object) { a.cap(object); });
        a.u32(self.ledState_);
        a.u64(self.ticks_);
        a.u64(self.objectsAllocated_);
        a.u64(self.gcPasses_);
        a.u64(self.failedTicks_);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

  private:
    bool runProgram(rtos::CompartmentContext &ctx);
    bool collectGarbage(rtos::CompartmentContext &ctx);

    std::vector<uint8_t> program_;
    std::vector<cap::Capability> liveObjects_;
    uint32_t ledState_ = 0;
    uint64_t ticks_ = 0;
    uint64_t objectsAllocated_ = 0;
    uint64_t gcPasses_ = 0;
    uint64_t failedTicks_ = 0;
};

} // namespace cheriot::workloads

#endif // CHERIOT_WORKLOADS_IOT_MICROVM_H
