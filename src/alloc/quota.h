/**
 * @file
 * Per-compartment heap quota ledger (the accounting half of CHERIoT's
 * allocator capabilities).
 *
 * Every allocator capability minted by the kernel names one ledger
 * entry. malloc charges the *chunk* size (payload plus boundary-tag
 * overhead, after CHERI representability rounding) against the entry;
 * the charge is released only when the memory actually returns to the
 * free lists. Under the revocation modes that is when the chunk
 * leaves quarantine — so a compartment that floods the quarantine
 * keeps paying for those bytes until a sweep completes, which is the
 * backpressure that stops a free/reallocate storm from starving its
 * neighbours while hiding behind "but I freed it".
 *
 * Entry 0 (kUnmeteredQuota) is the kernel's own unmetered account:
 * charges against it always succeed and are not tracked.
 */

#ifndef CHERIOT_ALLOC_QUOTA_H
#define CHERIOT_ALLOC_QUOTA_H

#include "snapshot/serializer.h"

#include <cstdint>
#include <vector>

namespace cheriot::alloc
{

/** Ledger entry handle carried inside a sealed allocator capability. */
using QuotaId = uint32_t;

/** The kernel's unmetered account (no limit, no tracking). */
constexpr QuotaId kUnmeteredQuota = 0;

class QuotaLedger
{
  public:
    struct Entry
    {
        uint64_t limit = 0; ///< Byte ceiling.
        uint64_t used = 0;  ///< Bytes currently charged.
        uint64_t peak = 0;  ///< High-water mark of used.
        uint32_t denials = 0; ///< Charges refused for this entry.
    };

    /** Mint a new entry with a @p limitBytes ceiling; returns its id. */
    QuotaId create(uint64_t limitBytes);

    /**
     * Charge @p bytes against @p id. Returns false (and counts a
     * denial) if the charge would exceed the limit; the ledger is
     * unchanged in that case. kUnmeteredQuota always succeeds.
     */
    bool charge(QuotaId id, uint64_t bytes);

    /**
     * Charge without admission control: used for the sub-minimum-
     * chunk slop the allocator cannot split off, so the eventual
     * credit (which is based on the real chunk size) balances.
     */
    void chargeUnchecked(QuotaId id, uint64_t bytes);

    /** Release @p bytes previously charged to @p id. */
    void credit(QuotaId id, uint64_t bytes);

    /** Entry for @p id, or null for kUnmeteredQuota / unknown ids. */
    const Entry *entry(QuotaId id) const;

    /** Number of minted entries (excluding the unmetered account). */
    uint32_t count() const
    {
        return static_cast<uint32_t>(entries_.size());
    }

    /** Bytes currently charged across every metered entry. */
    uint64_t totalUsed() const;

    /** Charges refused across every metered entry. */
    uint64_t totalDenials() const;

    /** @name Snapshot state @{ */
    template <class Self, class Archive>
    static bool transfer(Self &self, Archive &a)
    {
        a.seq(self.entries_, [](auto &a, auto &entry) {
            a.u64(entry.limit);
            a.u64(entry.used);
            a.u64(entry.peak);
            a.u32(entry.denials);
        });
        return a.ok();
    }
    void serialize(snapshot::Writer &w) const { transfer(*this, w); }
    bool deserialize(snapshot::Reader &r) { return transfer(*this, r); }
    /** @} */

  private:
    /** Entry i backs QuotaId i+1 (0 is the unmetered account). */
    std::vector<Entry> entries_;
};

} // namespace cheriot::alloc

#endif // CHERIOT_ALLOC_QUOTA_H
