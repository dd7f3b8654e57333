/**
 * @file
 * Fault-campaign reproduction contract: injection outcomes are a pure
 * function of (campaign seed, injection index); repro records survive
 * a disk round trip bit-exactly and reject corruption; and replaying
 * a recorded injection from its pre-fault snapshot reproduces the
 * recorded classification.
 */

#include "fault/campaign.h"
#include "sim/machine.h"
#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace cheriot::fault
{
namespace
{

/** Fresh scratch directory, removed on scope exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(std::filesystem::path(::testing::TempDir()) /
                ("cheriot-repro-" + tag))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

CampaignConfig
smallCampaign()
{
    CampaignConfig config;
    config.seed = 0x7e57ab1e;
    config.injections = 4;
    config.workload = CampaignWorkload::CoreMark;
    return config;
}

TEST(CampaignRepro, StartIndexReproducesExactInjection)
{
    const CampaignReport full = runFaultCampaign(smallCampaign());
    ASSERT_EQ(full.details.size(), 4u);
    EXPECT_TRUE(full.invariantHolds());

    // Re-running injection 2 alone must reproduce its plan and
    // classification bit-for-bit: seeds derive from the absolute
    // index, not the loop counter.
    CampaignConfig one = smallCampaign();
    one.startIndex = 2;
    one.injections = 1;
    const CampaignReport solo = runFaultCampaign(one);
    ASSERT_EQ(solo.details.size(), 1u);

    const CampaignRun &expected = full.details[2];
    const CampaignRun &actual = solo.details[0];
    EXPECT_EQ(actual.index, expected.index);
    EXPECT_EQ(actual.seed, expected.seed);
    EXPECT_EQ(actual.workload, expected.workload);
    EXPECT_EQ(actual.plan.site, expected.plan.site);
    EXPECT_EQ(actual.plan.triggerCycle, expected.plan.triggerCycle);
    EXPECT_EQ(actual.plan.addr, expected.plan.addr);
    EXPECT_EQ(actual.outcome, expected.outcome);
    EXPECT_EQ(actual.safetyViolations, expected.safetyViolations);
}

TEST(CampaignRepro, CorruptFreeChunkSizeDoesNotAbortTheHost)
{
    // Under the smoke seed, IoT injections 3924 and 8804 flip the
    // boundary-tag size of a free chunk to a value far past the heap.
    // The allocator must refuse that chunk: splitting it would store a
    // header outside the heap capability, which aborted the host.
    for (const uint32_t index : {3924u, 8804u}) {
        CampaignConfig config;
        config.seed = 0xc8e210a5u;
        config.workload = CampaignWorkload::Iot;
        config.startIndex = index;
        config.injections = 1;
        const CampaignReport report = runFaultCampaign(config);
        EXPECT_EQ(report.runs, 1u) << index;
        EXPECT_EQ(report.safetyViolations, 0u) << index;
        EXPECT_TRUE(report.invariantHolds()) << index;
    }
}

TEST(CampaignRepro, ReproRecordSurvivesDiskRoundTrip)
{
    // A synthetic record with every field set to a distinctive value,
    // carrying a real machine image as its pre-fault snapshot.
    sim::MachineConfig machineConfig;
    machineConfig.sramSize = 128u << 10;
    machineConfig.heapOffset = 64u << 10;
    machineConfig.heapSize = 32u << 10;
    sim::Machine machine(machineConfig);
    machine.idle(777);

    ReproRecord record;
    record.campaignSeed = 0x1122334455667788ull;
    record.injectionIndex = 42;
    record.runSeed = 0x99aabbccddeeff00ull;
    record.workload = CampaignWorkload::CoreMark;
    record.plan.site = FaultSite::DataFlip;
    record.plan.triggerCycle = 123456;
    record.plan.triggerTransaction = 789;
    record.plan.addr = 0x20004000;
    record.plan.param = 7;
    record.outcome = Outcome::Degraded;
    record.safetyViolations = 0;
    record.faultBudget = 9;
    record.restartDelayCycles = 4096;
    record.cmBudget = 5'000'000;
    record.iotRef.ok = true;
    record.iotRef.packetsProcessed = 11;
    record.iotRef.jsTicks = 22;
    record.iotRef.finalLedState = 0x33;
    record.iotRef.calleeFaults = 1;
    record.iotRef.handlerInvocations = 2;
    record.iotRef.forcedUnwinds = 3;
    record.iotRef.trapsTaken = 4;
    record.cmRef.valid = true;
    record.cmRef.checksum = 0xcafe;
    record.preFaultImage = machine.saveImage();

    ScratchDir dir("roundtrip");
    const std::string path = dir.str() + "/record.snap";
    ASSERT_TRUE(writeReproRecord(record, path));

    ReproRecord loaded;
    ASSERT_TRUE(readReproRecord(path, &loaded));
    EXPECT_EQ(loaded.campaignSeed, record.campaignSeed);
    EXPECT_EQ(loaded.injectionIndex, record.injectionIndex);
    EXPECT_EQ(loaded.runSeed, record.runSeed);
    EXPECT_EQ(loaded.workload, record.workload);
    EXPECT_EQ(loaded.plan.site, record.plan.site);
    EXPECT_EQ(loaded.plan.triggerCycle, record.plan.triggerCycle);
    EXPECT_EQ(loaded.plan.triggerTransaction,
              record.plan.triggerTransaction);
    EXPECT_EQ(loaded.plan.addr, record.plan.addr);
    EXPECT_EQ(loaded.plan.param, record.plan.param);
    EXPECT_EQ(loaded.outcome, record.outcome);
    EXPECT_EQ(loaded.safetyViolations, record.safetyViolations);
    EXPECT_EQ(loaded.faultBudget, record.faultBudget);
    EXPECT_EQ(loaded.restartDelayCycles, record.restartDelayCycles);
    EXPECT_EQ(loaded.cmBudget, record.cmBudget);
    EXPECT_EQ(loaded.iotRef.packetsProcessed,
              record.iotRef.packetsProcessed);
    EXPECT_EQ(loaded.iotRef.trapsTaken, record.iotRef.trapsTaken);
    EXPECT_EQ(loaded.cmRef.valid, record.cmRef.valid);
    EXPECT_EQ(loaded.cmRef.checksum, record.cmRef.checksum);
    EXPECT_EQ(loaded.preFaultImage.data, record.preFaultImage.data);

    // A restored machine accepts the embedded image.
    sim::Machine other(machineConfig);
    EXPECT_TRUE(other.restoreImage(loaded.preFaultImage));
    EXPECT_EQ(other.cycles(), 777u);
}

TEST(CampaignRepro, CorruptRecordIsRejected)
{
    ReproRecord record;
    record.injectionIndex = 1;
    ScratchDir dir("corrupt");
    const std::string path = dir.str() + "/record.snap";
    ASSERT_TRUE(writeReproRecord(record, path));

    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(20);
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        f.seekp(20);
        f.write(&byte, 1);
    }

    ReproRecord loaded;
    EXPECT_FALSE(readReproRecord(path, &loaded));
    EXPECT_FALSE(readReproRecord(dir.str() + "/missing.snap", &loaded));
}

TEST(CampaignRepro, RecordedInjectionsReplayToSameClassification)
{
    // reproAll records every injection, so a healthy campaign (no
    // failing runs) still exercises the full record → replay path the
    // `replay` tool uses on real failures.
    ScratchDir dir("replay");
    CampaignConfig config = smallCampaign();
    config.injections = 2;
    config.reproDir = dir.str();
    config.reproAll = true;
    const CampaignReport report = runFaultCampaign(config);
    ASSERT_EQ(report.reproPaths.size(), 2u);

    for (size_t i = 0; i < report.reproPaths.size(); ++i) {
        ReproRecord record;
        ASSERT_TRUE(readReproRecord(report.reproPaths[i], &record));
        EXPECT_EQ(record.outcome, report.details[i].outcome);
        EXPECT_FALSE(record.preFaultImage.empty());

        const ReplayResult replayed = replayRepro(record);
        EXPECT_TRUE(replayed.matchesRecorded)
            << "injection " << record.injectionIndex << " replayed as "
            << outcomeName(replayed.outcome) << ", recorded "
            << outcomeName(record.outcome);
        EXPECT_EQ(replayed.outcome, record.outcome);
        EXPECT_EQ(replayed.safetyViolations, record.safetyViolations);
    }
}

} // namespace
} // namespace cheriot::fault
