/**
 * @file
 * The allocation microbenchmark of Table 4 / Figs. 5-6 (paper
 * §7.2.2): allocate and free a total of 1 MiB of heap memory at
 * sizes from 32 bytes to 128 KiB, through real cross-compartment
 * calls into the allocator compartment, under the four
 * temporal-safety configurations — each with and without the stack
 * high-water mark.
 */

#ifndef CHERIOT_WORKLOADS_ALLOCBENCH_ALLOC_BENCH_H
#define CHERIOT_WORKLOADS_ALLOCBENCH_ALLOC_BENCH_H

#include "alloc/heap_allocator.h"
#include "sim/core_config.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cheriot::workloads
{

struct AllocBenchConfig
{
    sim::CoreConfig core = sim::CoreConfig::ibex();
    alloc::TemporalMode mode = alloc::TemporalMode::None;
    bool stackHighWaterMark = true;
    uint32_t allocSize = 1024;
    uint64_t totalBytes = 1u << 20; ///< 1 MiB, as in the paper.
    /** Quarantined bytes before a sweep (0 = mode-specific default). */
    uint64_t quarantineThreshold = 0;
    uint32_t heapSize = 256u << 10; ///< 256 KiB heap window.
};

struct AllocBenchResult
{
    uint64_t cycles = 0;
    uint64_t allocations = 0;
    uint64_t sweeps = 0;
    uint64_t bytesZeroedOnStack = 0;
    bool ok = false;
};

/** Run one (mode, hwm, size) cell. */
AllocBenchResult runAllocBench(const AllocBenchConfig &config);

/** A full Table 4 panel for one core: rows = configurations,
 * columns = allocation sizes. */
struct AllocBenchPanel
{
    std::string coreName;
    std::vector<uint32_t> sizes;
    struct Row
    {
        std::string label;
        alloc::TemporalMode mode;
        bool hwm;
        std::vector<AllocBenchResult> cells;
    };
    std::vector<Row> rows;
};

/**
 * Run the whole panel. @p sizes defaults to the paper's 32 B..128 KiB
 * powers of two.
 */
AllocBenchPanel runAllocBenchPanel(const sim::CoreConfig &core,
                                   std::vector<uint32_t> sizes = {},
                                   uint64_t totalBytes = 1u << 20);

} // namespace cheriot::workloads

#endif // CHERIOT_WORKLOADS_ALLOCBENCH_ALLOC_BENCH_H
