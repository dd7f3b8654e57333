/**
 * @file
 * TLS compartment model (mBedTLS stand-in) for the IoT application.
 *
 * The paper runs mBedTLS in its own compartment; we model its two
 * dominant costs with the same memory behaviour:
 *
 *  - the handshake: a one-off burst of public-key arithmetic
 *    (register-heavy compute, a few million cycles at 20 MHz —
 *    seconds of wall-clock, which is why the paper's one-minute
 *    average includes it);
 *  - per-record symmetric crypto: a read-modify-write pass over the
 *    record payload through the received capability, at a
 *    cycles-per-byte rate typical of software AES-GCM on RV32.
 *
 * The record pass is real capability-checked memory traffic, so the
 * TLS compartment exercises bounds, permissions and (for freed
 * buffers) the load filter exactly like compiled code would.
 */

#ifndef CHERIOT_WORKLOADS_IOT_TLS_MODEL_H
#define CHERIOT_WORKLOADS_IOT_TLS_MODEL_H

#include "rtos/compartment.h"
#include "snapshot/serializer.h"

#include <cstdint>

namespace cheriot::workloads
{

class TlsSession
{
  public:
    /** Cycles of public-key compute for the initial handshake. */
    static constexpr uint32_t kHandshakeComputeCycles = 2'500'000;

    /** Interpreter-style cycles per payload byte (software AES-GCM
     * on a 32-bit in-order core, ~45 cycles/byte). */
    static constexpr uint32_t kCyclesPerByte = 45;

    /** Run the handshake burst (call once per connection). */
    void handshake(rtos::CompartmentContext &ctx);

    /**
     * Decrypt a record in place through @p record (must cover
     * @p bytes). Returns a 32-bit authentication word derived from
     * the payload.
     */
    uint32_t processRecord(rtos::CompartmentContext &ctx,
                           const cap::Capability &record, uint32_t bytes);

    bool established() const { return established_; }
    uint64_t recordsProcessed() const { return records_; }

    /** @name Snapshot state @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.b(self.established_);
        a.u64(self.records_);
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

  private:
    bool established_ = false;
    uint64_t records_ = 0;
};

} // namespace cheriot::workloads

#endif // CHERIOT_WORKLOADS_IOT_TLS_MODEL_H
