#include "workloads/allocbench/alloc_bench.h"

#include "rtos/kernel.h"
#include "util/log.h"

namespace cheriot::workloads
{

using alloc::TemporalMode;

namespace
{

/** Embedded thread stacks are a few hundred bytes to a couple of KiB
 * (§5.2: "stack usage ... usually limited to a couple of KiBs"); the
 * zeroing cost is bounded by this. */
constexpr uint32_t kThreadStack = 256;

} // namespace

AllocBenchResult
runAllocBench(const AllocBenchConfig &config)
{
    sim::MachineConfig machineConfig;
    machineConfig.core = config.core;
    machineConfig.core.hwmEnabled = config.stackHighWaterMark;
    // A tightly sized SoC: heap plus a small static region, so a
    // revocation sweep covers "almost 256 KiB of SRAM" (§7.2.2).
    machineConfig.sramSize = config.heapSize + (16u << 10);
    machineConfig.heapOffset = 16u << 10;
    machineConfig.heapSize = config.heapSize;

    sim::Machine machine(machineConfig);
    rtos::Kernel kernel(machine);
    kernel.initHeap(config.mode, config.quarantineThreshold);
    rtos::Thread &thread =
        kernel.createThread("bench", 1, kThreadStack);
    std::string bootError;
    if (!kernel.finalizeBoot(&bootError)) {
        fatal("allocbench: boot verification failed: %s",
              bootError.c_str());
    }
    kernel.activate(thread);

    AllocBenchResult result;
    const uint64_t count =
        std::max<uint64_t>(1, config.totalBytes / config.allocSize);

    const uint64_t start = machine.cycles();
    for (uint64_t i = 0; i < count; ++i) {
        const cap::Capability ptr = kernel.malloc(thread, config.allocSize);
        if (!ptr.tag()) {
            warn("allocbench: allocation %llu of %u bytes failed (%s)",
                 static_cast<unsigned long long>(i), config.allocSize,
                 alloc::temporalModeName(config.mode));
            return result;
        }
        if (kernel.free(thread, ptr) !=
            alloc::HeapAllocator::FreeResult::Ok) {
            warn("allocbench: free %llu failed",
                 static_cast<unsigned long long>(i));
            return result;
        }
    }
    // Let any in-flight background sweep finish so configurations are
    // compared on completed work.
    if (config.mode == TemporalMode::HardwareRevocation) {
        kernel.allocator().synchronise();
    }

    result.cycles = machine.cycles() - start;
    result.allocations = count;
    result.sweeps = kernel.allocator().sweepsTriggered.value();
    result.bytesZeroedOnStack = kernel.switcher().bytesZeroed.value();
    result.ok = true;
    return result;
}

AllocBenchPanel
runAllocBenchPanel(const sim::CoreConfig &core, std::vector<uint32_t> sizes,
                   uint64_t totalBytes)
{
    if (sizes.empty()) {
        for (uint32_t size = 32; size <= (128u << 10); size *= 2) {
            sizes.push_back(size);
        }
    }

    AllocBenchPanel panel;
    panel.coreName = core.name;
    panel.sizes = sizes;

    struct ModeSpec
    {
        const char *label;
        TemporalMode mode;
    };
    static const ModeSpec kModes[] = {
        {"Baseline", TemporalMode::None},
        {"Metadata", TemporalMode::MetadataOnly},
        {"Software", TemporalMode::SoftwareRevocation},
        {"Hardware", TemporalMode::HardwareRevocation},
    };

    for (const auto &spec : kModes) {
        for (const bool hwm : {false, true}) {
            AllocBenchPanel::Row row;
            row.label = std::string(spec.label) + (hwm ? " (S)" : "");
            row.mode = spec.mode;
            row.hwm = hwm;
            for (const uint32_t size : sizes) {
                AllocBenchConfig config;
                config.core = core;
                config.mode = spec.mode;
                config.stackHighWaterMark = hwm;
                config.allocSize = size;
                config.totalBytes = totalBytes;
                row.cells.push_back(runAllocBench(config));
            }
            panel.rows.push_back(std::move(row));
        }
    }
    return panel;
}

} // namespace cheriot::workloads
