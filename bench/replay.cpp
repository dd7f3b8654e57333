/**
 * Replay a recorded fault-campaign injection in isolation.
 *
 * A repro record (written by `fault_campaign --repro-dir`) carries the
 * injection's seeds, the armed fault plan, the reference summary the
 * classifier used, and the pre-fault system snapshot. This tool
 * rebuilds the injector, resumes the workload from the snapshot and
 * re-classifies — exiting zero only when the replay reproduces the
 * recorded classification.
 *
 * Usage:
 *   replay <record.snap> [--verbose]
 */

#include "fault/campaign.h"
#include "flags.h"
#include "util/log.h"

#include <cinttypes>
#include <cstdio>
#include <string>

using namespace cheriot;

int
main(int argc, char **argv)
{
    bench::Flags flags("replay", "<record.snap> [--verbose]", argc, argv);
    const bool verbose = flags.has("--verbose");
    const std::string path = flags.done(1, 1)[0];
    setLogLevel(verbose ? LogLevel::Info : LogLevel::Warn);

    fault::ReproRecord record;
    if (!fault::readReproRecord(path, &record)) {
        std::fprintf(stderr,
                     "replay: %s is not a valid repro record\n",
                     path.c_str());
        return 2;
    }

    std::printf("replaying injection %u of campaign seed 0x%016" PRIx64
                "\n  run seed 0x%016" PRIx64 ", workload %s, site %s, "
                "recorded outcome %s\n",
                record.injectionIndex, record.campaignSeed,
                record.runSeed,
                fault::campaignWorkloadName(record.workload),
                fault::faultSiteName(record.plan.site),
                fault::outcomeName(record.outcome));

    const fault::ReplayResult result = fault::replayRepro(record);

    std::printf("replay outcome: %s (fired=%d, safety violations "
                "%" PRIu64 ")\n",
                fault::outcomeName(result.outcome), result.fired ? 1 : 0,
                result.safetyViolations);
    std::printf("classification %s\n",
                result.matchesRecorded ? "REPRODUCED" : "DIVERGED");
    return result.matchesRecorded ? 0 : 1;
}
