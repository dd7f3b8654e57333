/**
 * @file
 * Simulated NIC MMIO device with RX/TX descriptor rings and DMA into
 * tagged SRAM.
 *
 * The device follows the classic descriptor-ring contract (e1000 /
 * riscv-vp++ style): the driver posts buffers by writing descriptors
 * into SRAM and advancing a free-running tail register; the device
 * consumes free slots in order, DMAs the payload, writes the
 * descriptor back with a DONE flag and advances its head register.
 * Head == tail means no free slot: the packet is dropped and counted —
 * that drop counter is the backpressure signal the stack feeds into
 * the admission-gate machinery.
 *
 * DMA goes through TaggedMemory's *data* write ports, so every landed
 * payload byte clears the covering capability micro-tag — the paper's
 * §4 tagged-bus rule falls out of the memory model for free: a device
 * can overwrite a capability but can never forge or preserve one.
 *
 * The device only ever touches SRAM inside the driver-programmed DMA
 * window [DMA_BASE, DMA_BASE + DMA_SIZE); descriptors or buffers
 * pointing elsewhere are refused and counted as errors, modelling an
 * IOMMU-less SoC whose bus fabric gates the DMA master.
 */

#ifndef CHERIOT_NET_NIC_DEVICE_H
#define CHERIOT_NET_NIC_DEVICE_H

#include "mem/mmio.h"
#include "mem/tagged_memory.h"
#include "snapshot/serializer.h"

#include <cstdint>
#include <functional>

namespace cheriot::fault
{
class FaultInjector;
}

namespace cheriot::net
{

class NicDevice : public mem::MmioDevice
{
  public:
    /** @name Register map (byte offsets within the MMIO window) @{ */
    static constexpr uint32_t kRegCtrl = 0x00;
    static constexpr uint32_t kRegIrqStatus = 0x04; ///< Write-1-to-clear.
    static constexpr uint32_t kRegIrqEnable = 0x08;
    static constexpr uint32_t kRegRxRingBase = 0x0c;
    static constexpr uint32_t kRegRxRingCount = 0x10;
    static constexpr uint32_t kRegRxHead = 0x14; ///< RO: device produce.
    static constexpr uint32_t kRegRxTail = 0x18; ///< Driver post marker.
    static constexpr uint32_t kRegDmaBase = 0x1c;
    static constexpr uint32_t kRegDmaSize = 0x20;
    static constexpr uint32_t kRegTxRingBase = 0x24;
    static constexpr uint32_t kRegTxRingCount = 0x28;
    static constexpr uint32_t kRegTxHead = 0x2c; ///< Driver post marker.
    static constexpr uint32_t kRegTxTail = 0x30; ///< RO: device consume.
    static constexpr uint32_t kRegTxKick = 0x34; ///< WO: process TX ring.
    /* Read-only counters. */
    static constexpr uint32_t kRegRxPackets = 0x40;
    static constexpr uint32_t kRegRxBytesLo = 0x44;
    static constexpr uint32_t kRegRxBytesHi = 0x48;
    static constexpr uint32_t kRegRxDrops = 0x4c;
    static constexpr uint32_t kRegRxErrors = 0x50;
    static constexpr uint32_t kRegTxPackets = 0x54;
    static constexpr uint32_t kRegTxBytesLo = 0x58;
    static constexpr uint32_t kRegTxBytesHi = 0x5c;
    /** Running XOR over transmitted payload words (the "wire"). */
    static constexpr uint32_t kRegTxChecksum = 0x60;
    /** @} */

    /** @name CTRL bits @{ */
    static constexpr uint32_t kCtrlRxEnable = 1u << 0;
    static constexpr uint32_t kCtrlTxEnable = 1u << 1;
    /** @} */

    /** @name IRQ_STATUS bits @{ */
    static constexpr uint32_t kIrqRxPacket = 1u << 0;
    static constexpr uint32_t kIrqRxOverflow = 1u << 1;
    static constexpr uint32_t kIrqTxDone = 1u << 2;
    static constexpr uint32_t kIrqRxError = 1u << 3;
    /** @} */

    /** @name Descriptor layout: 8 bytes in SRAM.
     * word0 = buffer address; word1 = len/capacity (bits 15:0) |
     * flags. The driver posts capacity with flags clear; the device
     * writes back the landed length with DONE (and ERROR on refusal).
     * @{ */
    static constexpr uint32_t kDescBytes = 8;
    static constexpr uint32_t kDescDone = 1u << 31;
    static constexpr uint32_t kDescError = 1u << 30;
    static constexpr uint32_t kDescLenMask = 0xffff;
    /** @} */

    explicit NicDevice(mem::TaggedMemory &sram) : sram_(sram) {}

    std::string name() const override { return "nic"; }
    uint32_t read32(uint32_t offset) override;
    void write32(uint32_t offset, uint32_t value) override;

    /**
     * Host-side packet arrival: DMA @p bytes of @p frame into the
     * next free RX descriptor's buffer. Returns false when the packet
     * was dropped (RX disabled or ring full — backpressure) or
     * refused (bad descriptor); counters and IRQs record which.
     */
    bool deliver(const uint8_t *frame, uint32_t bytes);

    /** Level-triggered interrupt line (status AND enable). */
    bool interruptPending() const
    {
        return (irqStatus_ & irqEnable_) != 0;
    }

    /** Fault campaigns corrupt descriptors/payloads mid-delivery. */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        injector_ = injector;
    }

    /**
     * Where transmitted frames go. Without a sink the wire is the
     * checksum accumulator alone (the single-machine stack); with one
     * (a fleet's virtual switch), processTx also hands every frame's
     * payload bytes to the sink. The checksum accumulator still runs —
     * the wire-conservation audit is sink-independent.
     */
    using TxSink = std::function<void(const uint8_t *, uint32_t)>;
    void setTxSink(TxSink sink) { txSink_ = std::move(sink); }

    /** @name Host-side introspection (tests, fault targeting) @{ */
    uint32_t rxRingBase() const { return rxRingBase_; }
    uint32_t rxRingCount() const { return rxRingCount_; }
    uint32_t lastRxAddr() const { return lastRxAddr_; }
    uint32_t lastRxBytes() const { return lastRxBytes_; }
    uint64_t rxPackets() const { return rxPackets_; }
    uint64_t rxDrops() const { return rxDrops_; }
    uint64_t rxErrors() const { return rxErrors_; }
    uint64_t txPackets() const { return txPackets_; }
    uint32_t txChecksum() const { return txChecksum_; }
    /** @} */

    /** @name Snapshot state (all registers and counters) @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.u32(self.ctrl_);
        a.u32(self.irqStatus_);
        a.u32(self.irqEnable_);
        a.u32(self.rxRingBase_);
        a.u32(self.rxRingCount_);
        a.u32(self.rxHead_);
        a.u32(self.rxTail_);
        a.u32(self.dmaBase_);
        a.u32(self.dmaSize_);
        a.u32(self.txRingBase_);
        a.u32(self.txRingCount_);
        a.u32(self.txHead_);
        a.u32(self.txTail_);
        a.u64(self.rxPackets_);
        a.u64(self.rxBytes_);
        a.u64(self.rxDrops_);
        a.u64(self.rxErrors_);
        a.u64(self.txPackets_);
        a.u64(self.txBytes_);
        a.u32(self.txChecksum_);
        a.u32(self.lastRxAddr_);
        a.u32(self.lastRxBytes_);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

  private:
    /** Entirely inside the DMA window and backed by SRAM? */
    bool dmaOk(uint32_t addr, uint32_t bytes) const;
    void raise(uint32_t irqBits) { irqStatus_ |= irqBits; }
    /** Walk the TX ring from tail to head, transmitting each posted
     * descriptor onto the modelled wire (checksum accumulator). */
    void processTx();

    mem::TaggedMemory &sram_;
    fault::FaultInjector *injector_ = nullptr;
    TxSink txSink_;

    uint32_t ctrl_ = 0;
    uint32_t irqStatus_ = 0;
    uint32_t irqEnable_ = 0;
    uint32_t rxRingBase_ = 0;
    uint32_t rxRingCount_ = 0;
    uint32_t rxHead_ = 0; ///< Free-running filled-descriptor count.
    uint32_t rxTail_ = 0; ///< Free-running posted-descriptor count.
    uint32_t dmaBase_ = 0;
    uint32_t dmaSize_ = 0;
    uint32_t txRingBase_ = 0;
    uint32_t txRingCount_ = 0;
    uint32_t txHead_ = 0; ///< Free-running posted-descriptor count.
    uint32_t txTail_ = 0; ///< Free-running transmitted count.

    uint64_t rxPackets_ = 0;
    uint64_t rxBytes_ = 0;
    uint64_t rxDrops_ = 0;
    uint64_t rxErrors_ = 0;
    uint64_t txPackets_ = 0;
    uint64_t txBytes_ = 0;
    uint32_t txChecksum_ = 0;

    uint32_t lastRxAddr_ = 0;
    uint32_t lastRxBytes_ = 0;
};

} // namespace cheriot::net

#endif // CHERIOT_NET_NIC_DEVICE_H
