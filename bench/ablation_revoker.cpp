/**
 * @file
 * Ablation: software revoker loop unrolling (paper §3.3.2).
 *
 * "Because most embedded CPU pipelines have at least one cycle of
 * load-to-use delay, this loop is unrolled to load two capabilities,
 * avoiding the pipeline bubbles of a straightforward single load and
 * store; complex pipelines may benefit from further loop unrolling."
 *
 * This bench sweeps the unroll factor on both cores. On Flute (one
 * cycle load-to-use) unroll=2 removes the bubble and further
 * unrolling only shaves loop overhead; on Ibex (loads stall
 * internally, no shadow) unrolling only amortises loop overhead. Also
 * sweeps the interrupts-off batch size, which trades sweep speed
 * against worst-case interrupt latency.
 */

#include "revoker/software_revoker.h"
#include "sim/machine.h"

#include <cstdio>

using namespace cheriot;

namespace
{

uint64_t
sweepCost(const sim::CoreConfig &core, uint32_t unroll,
          uint32_t batchWords)
{
    sim::MachineConfig config;
    config.core = core;
    config.sramSize = 272u << 10;
    config.heapOffset = 16u << 10;
    config.heapSize = 256u << 10;
    sim::Machine machine(config);
    revoker::SoftwareRevoker revoker(machine, cap::Capability::memoryRoot(),
                                     machine.heapBase(), 256u << 10,
                                     batchWords, unroll);
    const uint64_t start = machine.cycles();
    revoker.requestSweep();
    return machine.cycles() - start;
}

} // namespace

int
main()
{
    std::printf("Ablation: software revoker unrolling and batching "
                "(paper §3.3.2)\n\n");

    for (const auto &core :
         {sim::CoreConfig::flute(), sim::CoreConfig::ibex()}) {
        std::printf("%s: 256 KiB sweep, batch = 64 words\n",
                    core.name.c_str());
        std::printf("  %-8s %14s %16s\n", "unroll", "cycles",
                    "cycles/word");
        const double words = (256u << 10) / 8.0;
        uint64_t base = 0;
        for (const uint32_t unroll : {1u, 2u, 4u, 8u}) {
            const uint64_t cycleCount = sweepCost(core, unroll, 64);
            if (unroll == 1) {
                base = cycleCount;
            }
            std::printf("  %-8u %14llu %15.2f   (%+5.1f%% vs unroll=1)\n",
                        unroll,
                        static_cast<unsigned long long>(cycleCount),
                        cycleCount / words,
                        100.0 * (static_cast<double>(cycleCount) - base) /
                            base);
        }
        std::printf("\n");
    }

    std::printf("interrupts-off batch size (flute, unroll=2): latency vs "
                "throughput\n");
    std::printf("  %-8s %14s %22s\n", "batch", "cycles",
                "worst IRQ-off window");
    for (const uint32_t batch : {16u, 64u, 256u, 1024u}) {
        const uint64_t cycleCount =
            sweepCost(sim::CoreConfig::flute(), 2, batch);
        // The off window is one batch of load/store pairs.
        const uint64_t window = batch * 35 / 10; // ~3.5 cycles/word
        std::printf("  %-8u %14llu %18llu cyc\n", batch,
                    static_cast<unsigned long long>(cycleCount),
                    static_cast<unsigned long long>(window));
    }
    return 0;
}
