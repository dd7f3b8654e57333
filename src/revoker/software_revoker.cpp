#include "revoker/software_revoker.h"

#include "sim/machine.h"
#include "util/log.h"

namespace cheriot::revoker
{

namespace
{

/** The sweep authority covers the window, so a fault is a model bug. */
void
expectSwept(sim::TrapCause cause, const char *access, uint32_t addr)
{
    if (cause != sim::TrapCause::None) {
        panic("software sweep: capability %s at 0x%08x faulted: %s",
              access, addr, sim::trapCauseName(cause));
    }
}

} // namespace

SoftwareRevoker::SoftwareRevoker(sim::Machine &machine,
                                 const cap::Capability &authority,
                                 uint32_t sweepBase, uint32_t sweepSize,
                                 uint32_t batchWords, uint32_t unroll)
    : machine_(machine), authority_(authority), sweepBase_(sweepBase),
      sweepSize_(sweepSize), batchWords_(batchWords), unroll_(unroll),
      stats_("sw_revoker")
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
        // instruction and the load-to-use bubble is hidden. Both go
        // through the machine's checked path, so the load filter
        // strips stale tags on the way.
        cap::Capability values[8];
        const uint32_t blockWords =
            std::min<uint32_t>(unroll_, totalWords - word);
        for (uint32_t i = 0; i < blockWords; ++i) {
            const uint32_t at = addr + i * cap::kCapabilitySize;
            expectSwept(machine_.loadCap(authority_, at, &values[i]),
                        "load", at);
        }
        if (blockWords < 2) {
            // Un-unrolled: the store consumes the load's result in
            // its shadow.
            machine_.advance(machine_.config().loadToUsePenalty, 0);
        }
        for (uint32_t i = 0; i < blockWords; ++i) {
            const uint32_t at = addr + i * cap::kCapabilitySize;
            expectSwept(machine_.storeCap(authority_, at, values[i]),
                        "store", at);
        }
        // Address bump + loop bound check + branch.
        machine_.advance(3, 0);
        wordsSwept += blockWords;
        addr += blockWords * cap::kCapabilitySize;

        wordsInBatch += blockWords;
        if (wordsInBatch >= batchWords_) {
            // Batch boundary: interrupts are re-enabled for a couple
            // of cycles so the system stays responsive (the revoker
            // "disables interrupts to incrementally sweep parts of
            // memory with a reasonable batch size").
            wordsInBatch = 0;
            machine_.idle(2);
        }
    }

    ++epoch_; // Sweep complete: epoch becomes even.
    sweeps++;
}

} // namespace cheriot::revoker
