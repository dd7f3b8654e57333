/**
 * @file
 * Seeded fault-injection campaign over the paper's workloads.
 *
 * A campaign executes N independent runs. Run i constructs a fresh
 * FaultInjector seeded with Rng::deriveStreamSeed(campaignSeed, i),
 * draws one fault plan, arms it, and executes a workload (the IoT
 * application of §7.2.3 or the CoreMark guest of §7.2.1) with the
 * injector wired into the machine. Each run's output is compared
 * against an uninjected reference run and classified.
 *
 * The headline invariant — the reason the campaign exists — is that
 * no injected fault ever yields a successful dereference of a
 * corrupted capability: the injector's safety oracle (poisoned
 * granules vs. tagged loads) must report zero violations across the
 * whole campaign. Plain-data corruption that slips through without
 * tripping any detector is reported separately: it is an
 * ECC-class availability problem, not a memory-safety escape.
 */

#ifndef CHERIOT_FAULT_CAMPAIGN_H
#define CHERIOT_FAULT_CAMPAIGN_H

#include "fault/fault_injector.h"
#include "snapshot/snapshot.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cheriot::fault
{

/** Which workloads the campaign alternates between. */
enum class CampaignWorkload : uint8_t
{
    Both = 0, ///< Alternate IoT and CoreMark runs.
    Iot,
    CoreMark,
};

const char *campaignWorkloadName(CampaignWorkload workload);

/** How one injected run ended, relative to the clean reference. */
enum class Outcome : uint8_t
{
    NotTriggered = 0, ///< The plan never fired (trigger past the run).
    Benign,           ///< Fired; output identical, nothing reacted.
    Recovered,        ///< Fired; output identical after visible recovery.
    Degraded,         ///< Output differs, but a detector saw the fault.
    Detected,         ///< Run failed visibly (fault contained, not silent).
    SilentDataCorruption, ///< Output differs with no detector firing.
    kCount,
};

constexpr uint32_t kOutcomeCount = static_cast<uint32_t>(Outcome::kCount);

const char *outcomeName(Outcome outcome);

struct CampaignConfig
{
    uint64_t seed = 0xc8e210a5u;
    uint32_t injections = 100;
    CampaignWorkload workload = CampaignWorkload::Both;
    bool verbose = false;
    /** Watchdog policy for the IoT runs: a tight budget so campaigns
     * exercise quarantine + restart, not just handlers. */
    uint32_t faultBudget = 4;
    uint64_t restartDelayCycles = 2048;
    /** First injection index: run indices [startIndex, startIndex +
     * injections). Seeds derive from the absolute index, so
     * `--start-index I --injections 1` reproduces injection I of a
     * larger campaign exactly. */
    uint32_t startIndex = 0;
    /** When non-empty, every failing injection (safety violation or
     * silent corruption) writes a replayable repro record —
     * pre-fault snapshot included — into this directory. */
    std::string reproDir;
    /** Record *every* injection, not only failing ones (reproDir must
     * be set). Lets any run of a campaign be replayed in isolation —
     * and lets CI assert replay fidelity on healthy campaigns, whose
     * failing-injection set is empty by design. */
    bool reproAll = false;
};

/** One run's record (kept for verbose reporting / debugging). */
struct CampaignRun
{
    uint32_t index = 0;
    uint64_t seed = 0;
    CampaignWorkload workload = CampaignWorkload::Iot;
    FaultPlan plan;
    bool fired = false;
    Outcome outcome = Outcome::NotTriggered;
    uint64_t safetyViolations = 0;
    /** Whole-machine state digest at the end of the injected run. */
    uint32_t finalDigest = 0;
};

struct CampaignReport
{
    CampaignConfig config;
    /** Injected-site × outcome matrix. */
    uint64_t matrix[kFaultSiteCount][kOutcomeCount] = {};
    uint64_t totals[kOutcomeCount] = {};
    uint64_t runs = 0;
    uint64_t fired = 0;
    /** Safety-oracle trips summed over every run. MUST be zero. */
    uint64_t safetyViolations = 0;
    std::vector<CampaignRun> details;

    /** @name First failing injection (safety violation or silent
     * corruption), for exact one-line reproduction @{ */
    int64_t firstFailingIndex = -1;
    uint64_t firstFailingSeed = 0;
    CampaignWorkload firstFailingWorkload = CampaignWorkload::Iot;
    /** @} */
    /** Repro records written this campaign (reproDir set). */
    std::vector<std::string> reproPaths;

    /** The campaign's assertion: corrupted capabilities are never
     * successfully dereferenced. */
    bool invariantHolds() const { return safetyViolations == 0; }
    uint64_t outcomes(Outcome outcome) const
    {
        return totals[static_cast<uint32_t>(outcome)];
    }
};

CampaignReport runFaultCampaign(const CampaignConfig &config);

/** Human-readable summary (site × outcome matrix + verdict). */
void printCampaignReport(const CampaignReport &report);

/**
 * Everything needed to replay one injection in isolation: the
 * identifying seeds, the armed plan, the reference summary the
 * classifier compared against, and the pre-fault system snapshot the
 * replayed run resumes from. Serialized as a two-section snapshot
 * image ("repro" metadata + "prefault" state), so files get the same
 * versioning and CRC protection as checkpoints.
 */
struct ReproRecord
{
    uint64_t campaignSeed = 0;
    uint32_t injectionIndex = 0;
    uint64_t runSeed = 0;
    CampaignWorkload workload = CampaignWorkload::Iot;
    FaultPlan plan;
    Outcome outcome = Outcome::NotTriggered;
    uint64_t safetyViolations = 0;

    /** Campaign knobs the workload configuration depends on. */
    uint32_t faultBudget = 4;
    uint64_t restartDelayCycles = 2048;
    uint64_t cmBudget = 0; ///< CoreMark instruction budget.

    /** Reference-run summary the classifier needs. @{ */
    struct IotReference
    {
        bool ok = false;
        uint64_t packetsProcessed = 0;
        uint64_t jsTicks = 0;
        uint32_t finalLedState = 0;
        uint64_t calleeFaults = 0;
        uint64_t handlerInvocations = 0;
        uint64_t forcedUnwinds = 0;
        uint64_t trapsTaken = 0;
        uint64_t nicRxDrops = 0;
        uint64_t nicRxErrors = 0;
        uint64_t netParseDrops = 0;
        uint64_t netRingCorruptionsDetected = 0;
    } iotRef;
    struct CoreMarkReference
    {
        bool valid = false;
        uint32_t checksum = 0;
    } cmRef;
    /** @} */

    /** System state at the start of the injected run, before the
     * armed plan can fire. */
    snapshot::SnapshotImage preFaultImage;
};

/** @name Repro record file I/O (crash-consistent, CRC-validated) @{ */
bool writeReproRecord(const ReproRecord &record, const std::string &path);
bool readReproRecord(const std::string &path, ReproRecord *out);
/** @} */

/** Outcome of replaying a repro record. */
struct ReplayResult
{
    Outcome outcome = Outcome::NotTriggered;
    bool fired = false;
    uint64_t safetyViolations = 0;
    /** Replay reproduced the recorded classification. */
    bool matchesRecorded = false;
};

/**
 * Replay a recorded injection in isolation: rebuild the injector from
 * the recorded seed, arm the recorded plan, resume the workload from
 * the pre-fault snapshot and classify against the recorded reference.
 */
ReplayResult replayRepro(const ReproRecord &record);

} // namespace cheriot::fault

#endif // CHERIOT_FAULT_CAMPAIGN_H
