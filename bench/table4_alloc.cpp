/**
 * @file
 * Reproduces Table 4 and Figures 5/6 (paper §7.2.2): cycles to
 * allocate (and free) 1 MiB of heap memory at sizes from 32 B to
 * 128 KiB under the four temporal-safety configurations, each with
 * and without the stack high-water mark, on both cores.
 *
 * Output: the raw cycle table (Table 4) for each core, followed by
 * the overhead-relative-to-baseline series that Figures 5 and 6
 * plot.
 *
 * Shapes under test (paper §7.2.2):
 *  - software revocation's share grows with allocation size, passing
 *    half the runtime around 1 KiB, and dominating at 128 KiB where
 *    every allocation forces a full sweep;
 *  - the stack high-water mark saves ~10% at small sizes;
 *  - hardware revocation + HWM beats the baseline for small
 *    allocations (≤512 B on Flute);
 *  - at 128 KiB on Ibex the HWM becomes a slight loss (two more
 *    registers per context switch while blocked on the revoker).
 */

#include "flags.h"
#include "workloads/allocbench/alloc_bench.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace cheriot;
using namespace cheriot::workloads;

namespace
{

std::string
sizeLabel(uint32_t bytes)
{
    char buffer[16];
    if (bytes >= 1024) {
        std::snprintf(buffer, sizeof(buffer), "%uK", bytes / 1024);
    } else {
        std::snprintf(buffer, sizeof(buffer), "%uB", bytes);
    }
    return buffer;
}

void
printPanel(const AllocBenchPanel &panel)
{
    std::printf("\n=== Table 4 (%s): cycles to allocate 1 MiB ===\n",
                panel.coreName.c_str());
    std::printf("%-14s", "config");
    for (uint32_t size : panel.sizes) {
        std::printf("%12s", sizeLabel(size).c_str());
    }
    std::printf("\n");
    for (const auto &row : panel.rows) {
        std::printf("%-14s", row.label.c_str());
        for (const auto &cell : row.cells) {
            if (cell.ok) {
                std::printf("%12llu",
                            static_cast<unsigned long long>(cell.cycles));
            } else {
                std::printf("%12s", "FAIL");
            }
        }
        std::printf("\n");
    }

    std::printf("\n--- Fig. %s: overhead relative to Baseline ---\n",
                panel.coreName == "flute" ? "5" : "6");
    const auto &baseline = panel.rows.front(); // "Baseline" (no HWM)
    std::printf("%-14s", "config");
    for (uint32_t size : panel.sizes) {
        std::printf("%12s", sizeLabel(size).c_str());
    }
    std::printf("\n");
    for (const auto &row : panel.rows) {
        std::printf("%-14s", row.label.c_str());
        for (size_t i = 0; i < row.cells.size(); ++i) {
            if (row.cells[i].ok && baseline.cells[i].ok) {
                const double ratio =
                    static_cast<double>(row.cells[i].cycles) /
                    static_cast<double>(baseline.cells[i].cycles);
                std::printf("%11.2fx", ratio);
            } else {
                std::printf("%12s", "-");
            }
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // A smaller total keeps quick runs fast; the default matches the
    // paper's 1 MiB.
    bench::Flags flags("table4_alloc", "[KIB]", argc, argv);
    const std::vector<std::string> args = flags.done(1);
    const uint64_t totalBytes =
        args.empty() ? 1u << 20
                     : flags.parse(args[0], "KIB", 1, UINT64_MAX >> 10)
                           << 10;

    std::printf("Table 4 / Figures 5-6: allocator microbenchmark\n");
    std::printf("(1 MiB allocated+freed per cell; 256 KiB heap; "
                "cross-compartment malloc/free)\n");

    printPanel(runAllocBenchPanel(sim::CoreConfig::flute(), {},
                                  totalBytes));
    printPanel(runAllocBenchPanel(sim::CoreConfig::ibex(), {},
                                  totalBytes));
    return 0;
}
