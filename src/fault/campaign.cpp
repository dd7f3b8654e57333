#include "fault/campaign.h"

#include "mem/memory_map.h"
#include "util/log.h"
#include "workloads/coremark/coremark.h"
#include "workloads/iot/iot_app.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

namespace cheriot::fault
{

namespace
{

/** IoT campaign run: short horizon, busy packet schedule, handlers
 * installed, tight watchdog budget. */
workloads::IotAppConfig
iotCampaignConfig(const CampaignConfig &campaign, FaultInjector *injector)
{
    workloads::IotAppConfig config;
    config.simSeconds = 0.25;
    config.packetsPerSec = 50;
    config.injector = injector;
    config.installErrorHandlers = true;
    config.watchdogFaultBudget = campaign.faultBudget;
    config.watchdogRestartDelayCycles = campaign.restartDelayCycles;
    return config;
}

/** CoreMark campaign run: a few iterations, capability mode. */
workloads::CoreMarkConfig
coreMarkCampaignConfig(FaultInjector *injector, uint64_t maxInstructions)
{
    workloads::CoreMarkConfig config;
    config.iterations = 4;
    config.injector = injector;
    config.maxInstructions = maxInstructions;
    return config;
}

/** Any recovery machinery visibly reacted during the IoT run? */
bool
iotRecoveryObserved(const workloads::IotAppResult &run,
                    const workloads::IotAppResult &ref)
{
    return run.calleeFaults > ref.calleeFaults ||
           run.handlerInvocations > ref.handlerInvocations ||
           run.forcedUnwinds > ref.forcedUnwinds ||
           run.watchdogQuarantines > 0 || run.watchdogRestarts > 0 ||
           run.revokerKicks > 0 || run.busRetries > 0 ||
           run.trapsTaken > ref.trapsTaken ||
           // NIC-path detectors: a corrupted descriptor or payload is
           // contained by dropping the packet, and these counters are
           // the visible evidence.
           run.nicRxDrops > ref.nicRxDrops ||
           run.nicRxErrors > ref.nicRxErrors ||
           run.netParseDrops > ref.netParseDrops ||
           run.netRingCorruptionsDetected > ref.netRingCorruptionsDetected;
}

Outcome
classifyIot(const workloads::IotAppResult &run,
            const workloads::IotAppResult &ref, bool fired)
{
    const bool observed = iotRecoveryObserved(run, ref);
    const bool matches = run.ok &&
                         run.packetsProcessed == ref.packetsProcessed &&
                         run.jsTicks == ref.jsTicks &&
                         run.finalLedState == ref.finalLedState;
    if (!fired && !observed) {
        return Outcome::NotTriggered;
    }
    if (matches) {
        return observed ? Outcome::Recovered : Outcome::Benign;
    }
    if (!run.ok) {
        return Outcome::Detected;
    }
    return observed ? Outcome::Degraded : Outcome::SilentDataCorruption;
}

Outcome
classifyCoreMark(const workloads::CoreMarkResult &run,
                 const workloads::CoreMarkResult &ref, bool fired)
{
    const bool observed = run.busRetries > 0 || run.trapsTaken > 0;
    const bool matches = run.valid && run.checksum == ref.checksum;
    if (!fired && !observed) {
        return Outcome::NotTriggered;
    }
    if (matches) {
        return observed ? Outcome::Recovered : Outcome::Benign;
    }
    if (!run.valid) {
        // InstrLimit (hang), DoubleTrap (trap with no handler) and
        // the like: the failure is loud, so the fault is contained.
        return Outcome::Detected;
    }
    return observed ? Outcome::Degraded : Outcome::SilentDataCorruption;
}

/** Uninjected reference results every injection is classified
 * against, plus the campaign bounds derived from them. */
struct CampaignReferences
{
    workloads::IotAppResult iotRef;
    workloads::CoreMarkResult cmRef;
    uint64_t cmBudget = 0;
    uint64_t iotHorizon = 0;
};

CampaignReferences
computeReferences(const CampaignConfig &config)
{
    CampaignReferences refs;
    refs.iotRef = runIotApp(iotCampaignConfig(config, nullptr));
    if (!refs.iotRef.ok) {
        fatal("campaign: IoT reference run failed");
    }
    refs.cmRef =
        runCoreMark(coreMarkCampaignConfig(nullptr, 0), "reference");
    if (!refs.cmRef.valid) {
        fatal("campaign: CoreMark reference run failed");
    }
    // A run that exceeds 4x the reference instruction count has hung;
    // the machine halts it with InstrLimit, which counts as detected.
    refs.cmBudget = refs.cmRef.instructions * 4 + 10'000;
    refs.iotHorizon = refs.iotRef.cycles;
    return refs;
}

/** Memory-fault target windows. @{ */
constexpr uint32_t kIotSramSize = 160u << 10;
// CoreMark's live image: program text from +0x1000, arena up to
// +0x20000. Aiming the memory faults there keeps most of them
// consequential rather than landing in never-touched SRAM.
constexpr uint32_t kCmMemSize = 0x20000;
/** @} */

/**
 * Execute injection @p index: derive its seed, draw and arm a plan,
 * run the workload with the injector wired in, classify.
 * @p preFaultOut, when non-null, receives the system state at the
 * start of the run (before the plan can fire).
 */
CampaignRun
executeInjection(const CampaignConfig &config,
                 const CampaignReferences &refs, uint32_t index,
                 snapshot::SnapshotImage *preFaultOut)
{
    CampaignRun run;
    run.index = index;
    run.seed = Rng::deriveStreamSeed(config.seed, index);
    run.workload = config.workload == CampaignWorkload::Both
                       ? (index % 2 == 0 ? CampaignWorkload::Iot
                                         : CampaignWorkload::CoreMark)
                       : config.workload;

    FaultInjector injector(run.seed);
    if (run.workload == CampaignWorkload::Iot) {
        run.plan = injector.planNext(refs.iotHorizon, mem::kSramBase,
                                     kIotSramSize);
        injector.arm(run.plan);
        auto workload = iotCampaignConfig(config, &injector);
        workload.preRunSnapshotOut = preFaultOut;
        const auto result = runIotApp(workload);
        run.fired = injector.fired();
        run.outcome = classifyIot(result, refs.iotRef, run.fired);
        run.finalDigest = result.finalDigest;
    } else {
        run.plan = injector.planNext(refs.cmRef.cycles, mem::kSramBase,
                                     kCmMemSize);
        injector.arm(run.plan);
        auto workload = coreMarkCampaignConfig(&injector, refs.cmBudget);
        workload.preRunSnapshotOut = preFaultOut;
        const auto result = runCoreMark(workload, "injected");
        run.fired = injector.fired();
        run.outcome = classifyCoreMark(result, refs.cmRef, run.fired);
        run.finalDigest = result.finalDigest;
    }
    run.safetyViolations = injector.safetyViolations.value();
    return run;
}

/** A failing injection: the smoke test would exit non-zero on the
 * safety violation, and silent corruption is the outcome replay
 * exists to debug. */
bool
isFailingRun(const CampaignRun &run)
{
    return run.safetyViolations > 0 ||
           run.outcome == Outcome::SilentDataCorruption;
}

} // namespace

const char *
campaignWorkloadName(CampaignWorkload workload)
{
    switch (workload) {
      case CampaignWorkload::Both: return "both";
      case CampaignWorkload::Iot: return "iot";
      case CampaignWorkload::CoreMark: return "coremark";
    }
    return "unknown";
}

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::NotTriggered: return "not-triggered";
      case Outcome::Benign: return "benign";
      case Outcome::Recovered: return "recovered";
      case Outcome::Degraded: return "degraded";
      case Outcome::Detected: return "detected";
      case Outcome::SilentDataCorruption: return "silent-corruption";
      case Outcome::kCount: break;
    }
    return "unknown";
}

CampaignReport
runFaultCampaign(const CampaignConfig &config)
{
    CampaignReport report;
    report.config = config;

    // Clean reference runs: identical configuration, no injector.
    const CampaignReferences refs = computeReferences(config);

    const bool captureSnapshots = !config.reproDir.empty();
    if (captureSnapshots) {
        std::error_code ec;
        std::filesystem::create_directories(config.reproDir, ec);
        if (ec) {
            fatal("campaign: cannot create repro directory %s",
                  config.reproDir.c_str());
        }
    }
    for (uint32_t n = 0; n < config.injections; ++n) {
        const uint32_t i = config.startIndex + n;
        snapshot::SnapshotImage preFault;
        const CampaignRun run = executeInjection(
            config, refs, i, captureSnapshots ? &preFault : nullptr);

        report.runs++;
        report.fired += run.fired ? 1 : 0;
        report.safetyViolations += run.safetyViolations;
        report.matrix[static_cast<uint32_t>(run.plan.site)]
                     [static_cast<uint32_t>(run.outcome)]++;
        report.totals[static_cast<uint32_t>(run.outcome)]++;
        report.details.push_back(run);

        if (isFailingRun(run) && report.firstFailingIndex < 0) {
            report.firstFailingIndex = i;
            report.firstFailingSeed = run.seed;
            report.firstFailingWorkload = run.workload;
        }
        if (captureSnapshots &&
            (isFailingRun(run) || config.reproAll)) {
            ReproRecord record;
            record.campaignSeed = config.seed;
            record.injectionIndex = i;
            record.runSeed = run.seed;
            record.workload = run.workload;
            record.plan = run.plan;
            record.outcome = run.outcome;
            record.safetyViolations = run.safetyViolations;
            record.faultBudget = config.faultBudget;
            record.restartDelayCycles = config.restartDelayCycles;
            record.cmBudget = refs.cmBudget;
            record.iotRef.ok = refs.iotRef.ok;
            record.iotRef.packetsProcessed = refs.iotRef.packetsProcessed;
            record.iotRef.jsTicks = refs.iotRef.jsTicks;
            record.iotRef.finalLedState = refs.iotRef.finalLedState;
            record.iotRef.calleeFaults = refs.iotRef.calleeFaults;
            record.iotRef.handlerInvocations =
                refs.iotRef.handlerInvocations;
            record.iotRef.forcedUnwinds = refs.iotRef.forcedUnwinds;
            record.iotRef.trapsTaken = refs.iotRef.trapsTaken;
            record.iotRef.nicRxDrops = refs.iotRef.nicRxDrops;
            record.iotRef.nicRxErrors = refs.iotRef.nicRxErrors;
            record.iotRef.netParseDrops = refs.iotRef.netParseDrops;
            record.iotRef.netRingCorruptionsDetected =
                refs.iotRef.netRingCorruptionsDetected;
            record.cmRef.valid = refs.cmRef.valid;
            record.cmRef.checksum = refs.cmRef.checksum;
            record.preFaultImage = std::move(preFault);

            char name[64];
            std::snprintf(name, sizeof(name), "repro-%06u.snap", i);
            const std::string path = config.reproDir + "/" + name;
            if (writeReproRecord(record, path)) {
                report.reproPaths.push_back(path);
            } else {
                warn("campaign: could not write repro record %s",
                     path.c_str());
            }
        }

        if (config.verbose) {
            inform("campaign: run %4u %-8s %-14s -> %-17s "
                   "(seed 0x%016" PRIx64 ")",
                   i, campaignWorkloadName(run.workload),
                   faultSiteName(run.plan.site), outcomeName(run.outcome),
                   run.seed);
        }
    }
    return report;
}

namespace
{

/** The record's two sections: "repro" metadata and the "prefault"
 * image as a length-prefixed blob. */
template <class Record, class Image>
bool
transferRecord(Record &record, Image &image)
{
    const auto repro = [&](auto &a) {
        a.u64(record.campaignSeed);
        a.u32(record.injectionIndex);
        a.u64(record.runSeed);
        a.u8(record.workload);
        a.u8(record.plan.site);
        a.u64(record.plan.triggerCycle);
        a.u64(record.plan.triggerTransaction);
        a.u32(record.plan.addr);
        a.u32(record.plan.param);
        a.u8(record.outcome);
        a.u64(record.safetyViolations);
        a.u32(record.faultBudget);
        a.u64(record.restartDelayCycles);
        a.u64(record.cmBudget);
        a.b(record.iotRef.ok);
        a.u64(record.iotRef.packetsProcessed);
        a.u64(record.iotRef.jsTicks);
        a.u32(record.iotRef.finalLedState);
        a.u64(record.iotRef.calleeFaults);
        a.u64(record.iotRef.handlerInvocations);
        a.u64(record.iotRef.forcedUnwinds);
        a.u64(record.iotRef.trapsTaken);
        a.u64(record.iotRef.nicRxDrops);
        a.u64(record.iotRef.nicRxErrors);
        a.u64(record.iotRef.netParseDrops);
        a.u64(record.iotRef.netRingCorruptionsDetected);
        a.b(record.cmRef.valid);
        a.u32(record.cmRef.checksum);
        return a.ok();
    };
    const auto prefault = [&](auto &a) {
        a.blob(record.preFaultImage.data);
        return a.ok();
    };
    return image.section("repro", repro) &&
           image.section("prefault", prefault);
}

} // namespace

bool
writeReproRecord(const ReproRecord &record, const std::string &path)
{
    snapshot::SnapshotWriter out;
    transferRecord(record, out);
    return snapshot::saveImageToFile(out.finish(), path);
}

bool
readReproRecord(const std::string &path, ReproRecord *out)
{
    snapshot::SnapshotImage image;
    if (!snapshot::loadImageFromFile(path, &image)) {
        return false;
    }
    const snapshot::SnapshotReader in(image);
    return in.valid() && transferRecord(*out, in);
}

ReplayResult
replayRepro(const ReproRecord &record)
{
    // The injector is deliberately absent from snapshots: rebuild it
    // from the recorded seed and re-arm the recorded plan. The replay
    // re-executes the same deterministic boot prefix, so the injector
    // reaches the state it had when the pre-fault image was captured,
    // and the restored run evolves exactly as the original did.
    FaultInjector injector(record.runSeed);
    injector.arm(record.plan);

    ReplayResult result;
    if (record.workload == CampaignWorkload::Iot) {
        CampaignConfig campaign;
        campaign.faultBudget = record.faultBudget;
        campaign.restartDelayCycles = record.restartDelayCycles;
        auto workload = iotCampaignConfig(campaign, &injector);
        workload.resumeImage = &record.preFaultImage;
        const auto run = runIotApp(workload);

        workloads::IotAppResult ref;
        ref.ok = record.iotRef.ok;
        ref.packetsProcessed = record.iotRef.packetsProcessed;
        ref.jsTicks = record.iotRef.jsTicks;
        ref.finalLedState = record.iotRef.finalLedState;
        ref.calleeFaults = record.iotRef.calleeFaults;
        ref.handlerInvocations = record.iotRef.handlerInvocations;
        ref.forcedUnwinds = record.iotRef.forcedUnwinds;
        ref.trapsTaken = record.iotRef.trapsTaken;
        ref.nicRxDrops = record.iotRef.nicRxDrops;
        ref.nicRxErrors = record.iotRef.nicRxErrors;
        ref.netParseDrops = record.iotRef.netParseDrops;
        ref.netRingCorruptionsDetected =
            record.iotRef.netRingCorruptionsDetected;
        result.outcome = classifyIot(run, ref, injector.fired());
    } else {
        auto workload =
            coreMarkCampaignConfig(&injector, record.cmBudget);
        workload.resumeImage = &record.preFaultImage;
        const auto run = runCoreMark(workload, "replay");

        workloads::CoreMarkResult ref;
        ref.valid = record.cmRef.valid;
        ref.checksum = record.cmRef.checksum;
        result.outcome = classifyCoreMark(run, ref, injector.fired());
    }
    result.fired = injector.fired();
    result.safetyViolations = injector.safetyViolations.value();
    result.matchesRecorded = result.outcome == record.outcome &&
                             result.safetyViolations ==
                                 record.safetyViolations;
    return result;
}

void
printCampaignReport(const CampaignReport &report)
{
    std::printf("\nfault campaign: %" PRIu64 " runs (seed 0x%" PRIx64
                ", workload %s), %" PRIu64 " faults fired\n\n",
                report.runs, report.config.seed,
                campaignWorkloadName(report.config.workload),
                report.fired);

    std::printf("%-16s", "site");
    for (uint32_t o = 0; o < kOutcomeCount; ++o) {
        std::printf("%18s", outcomeName(static_cast<Outcome>(o)));
    }
    std::printf("\n");
    for (uint32_t s = 0; s < kFaultSiteCount; ++s) {
        std::printf("%-16s", faultSiteName(static_cast<FaultSite>(s)));
        for (uint32_t o = 0; o < kOutcomeCount; ++o) {
            std::printf("%18" PRIu64, report.matrix[s][o]);
        }
        std::printf("\n");
    }
    std::printf("%-16s", "total");
    for (uint32_t o = 0; o < kOutcomeCount; ++o) {
        std::printf("%18" PRIu64, report.totals[o]);
    }
    std::printf("\n\n");

    std::printf("memory-safety violations (corrupted capability "
                "dereferenced): %" PRIu64 "\n",
                report.safetyViolations);
    std::printf("invariant %s\n",
                report.invariantHolds()
                    ? "HOLDS: every injected fault was contained by the "
                      "capability system"
                    : "VIOLATED: a corrupted capability was dereferenced");

    if (report.firstFailingIndex >= 0) {
        std::printf("\nfirst failing injection: index %" PRId64
                    ", run seed 0x%016" PRIx64 ", workload %s\n",
                    report.firstFailingIndex, report.firstFailingSeed,
                    campaignWorkloadName(report.firstFailingWorkload));
        std::printf("reproduce with: fault_campaign --seed 0x%" PRIx64
                    " --start-index %" PRId64
                    " --injections 1 --workload %s --verbose\n",
                    report.config.seed, report.firstFailingIndex,
                    campaignWorkloadName(report.config.workload));
    }
    for (const std::string &path : report.reproPaths) {
        std::printf("repro record: %s (replay with: replay %s)\n",
                    path.c_str(), path.c_str());
    }
}

} // namespace cheriot::fault
