#include "revoker/software_revoker.h"

#include "util/log.h"

namespace cheriot::revoker
{

SoftwareRevoker::SoftwareRevoker(SweepPort &port, uint32_t sweepBase,
                                 uint32_t sweepSize, uint32_t batchWords,
                                 uint32_t unroll)
    : port_(port), sweepBase_(sweepBase), sweepSize_(sweepSize),
      batchWords_(batchWords), unroll_(unroll), stats_("sw_revoker")
{
    if (sweepSize % cap::kCapabilitySize != 0) {
        fatal("sweep window size 0x%x not capability aligned", sweepSize);
    }
    if (unroll == 0 || unroll > 8) {
        fatal("unroll factor must be in 1..8");
    }
    stats_.registerCounter("sweeps", sweeps);
    stats_.registerCounter("wordsSwept", wordsSwept);
}

void
SoftwareRevoker::requestSweep()
{
    if (sweepInProgress()) {
        return;
    }
    ++epoch_; // Sweep begins: epoch becomes odd.

    const uint32_t totalWords = sweepSize_ / cap::kCapabilitySize;
    uint32_t addr = sweepBase_;
    uint32_t wordsInBatch = 0;

    for (uint32_t word = 0; word < totalWords; word += unroll_) {
        // One unrolled block: `unroll_` loads followed by `unroll_`
        // stores, so no load feeds the immediately following
        // instruction and the load-to-use bubble is hidden.
        cap::Capability values[8];
        const uint32_t blockWords =
            std::min<uint32_t>(unroll_, totalWords - word);
        for (uint32_t i = 0; i < blockWords; ++i) {
            values[i] = port_.sweepLoadCap(addr + i * cap::kCapabilitySize);
        }
        if (blockWords < 2) {
            // Un-unrolled: the store consumes the load's result in
            // its shadow.
            port_.sweepLoadToUseStall();
        }
        for (uint32_t i = 0; i < blockWords; ++i) {
            port_.sweepStoreCap(addr + i * cap::kCapabilitySize, values[i]);
        }
        // Address bump + loop bound check + branch.
        port_.sweepChargeExecution(3);
        wordsSwept += blockWords;
        addr += blockWords * cap::kCapabilitySize;

        wordsInBatch += blockWords;
        if (wordsInBatch >= batchWords_) {
            wordsInBatch = 0;
            port_.sweepInterruptWindow();
        }
    }

    ++epoch_; // Sweep complete: epoch becomes even.
    sweeps++;
}

} // namespace cheriot::revoker
