/**
 * Fault-injection campaign driver.
 *
 * Runs N seeded injections over the IoT and CoreMark workloads and
 * reports the site × outcome matrix. Exits non-zero if any injected
 * fault produced a memory-safety violation (a successful dereference
 * of a corrupted capability) — the invariant CI asserts.
 *
 * Usage:
 *   fault_campaign [--injections N] [--seed S] [--start-index I]
 *                  [--repro-dir DIR] [--repro-all]
 *                  [--workload both|iot|coremark] [--verbose]
 *
 * On failure the report names the first failing injection's exact
 * index and derived seed, with a one-line reproduction command; with
 * --repro-dir each failing injection also writes a replayable record
 * (pre-fault snapshot included) for the `replay` tool.
 */

#include "fault/campaign.h"
#include "flags.h"
#include "util/log.h"

#include <cstdint>
#include <string>

using namespace cheriot;

int
main(int argc, char **argv)
{
    bench::Flags flags("fault_campaign",
                       "[--injections N] [--seed S] [--start-index I] "
                       "[--repro-dir DIR] [--repro-all] "
                       "[--workload both|iot|coremark] [--verbose]",
                       argc, argv);
    fault::CampaignConfig config;
    config.injections = static_cast<uint32_t>(
        flags.u64("--injections", config.injections, 0, UINT32_MAX));
    config.seed = flags.u64("--seed", config.seed);
    config.startIndex = static_cast<uint32_t>(
        flags.u64("--start-index", config.startIndex, 0, UINT32_MAX));
    config.reproDir = flags.str("--repro-dir", config.reproDir);
    config.reproAll = flags.has("--repro-all");
    const std::string workload = flags.str("--workload", "both");
    if (workload == "iot") {
        config.workload = fault::CampaignWorkload::Iot;
    } else if (workload == "coremark") {
        config.workload = fault::CampaignWorkload::CoreMark;
    } else if (workload != "both") {
        flags.refuse("unknown workload '" + workload + "'");
    }
    config.verbose = flags.has("--verbose");
    flags.done();

    // Verbose surfaces the per-run classification lines (logged at
    // Info); the default keeps only warnings, e.g. watchdog actions.
    setLogLevel(config.verbose ? LogLevel::Info : LogLevel::Warn);

    const fault::CampaignReport report = fault::runFaultCampaign(config);
    fault::printCampaignReport(report);
    return report.invariantHolds() ? 0 : 1;
}
