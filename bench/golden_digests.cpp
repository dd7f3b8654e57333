/**
 * @file
 * Golden end-state digests: fixed-seed runs of every paper bench and
 * campaign, reduced to whole-machine state digests and deterministic
 * counters, compared line by line against a committed record.
 *
 * A refactor of the simulator's machinery (how time advances, how
 * state is digested, how capabilities are decoded) must leave every
 * simulated outcome bit-identical; this record is the observational
 * check. It covers:
 *   - the six Table 3 CoreMark configurations;
 *   - the IoT application on Ibex and Flute under hardware and
 *     software revocation;
 *   - injections 0-105 of the IoT and CoreMark fault campaigns
 *     (every fault site must appear: 0-99 draw 16 of the 17 sites,
 *     index 105 is the first nic-dma-corrupt plan under this seed);
 *   - the NIC + zero-copy network path on both cores;
 *   - whole-system snapshot images, pinned by size and CRC, so a
 *     change to any component's snapshot layout shows up here even
 *     where Machine::stateDigest does not reach: every node of a
 *     4-node chaos fleet (both cores, with and without the
 *     application tier), an IoT checkpoint taken mid-run (both cores
 *     x both revocation modes), the kernel stream after seeded
 *     object-capability and token/quota storms, and one repro record
 *     file per campaign workload.
 *
 * Usage: golden_digests FILE          compare against FILE (exit 1 on
 *                                     any difference)
 *        golden_digests --write FILE  regenerate FILE
 */

#include "fault/campaign.h"
#include "net_harness.h"
#include "rtos/kernel.h"
#include "sim/fleet.h"
#include "snapshot/checkpoint.h"
#include "util/rng.h"
#include "workloads/coremark/coremark.h"
#include "workloads/iot/iot_app.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

using namespace cheriot;

namespace
{

constexpr uint64_t kCampaignSeed = 0xc8e210a5u;
constexpr uint32_t kCampaignInjections = 106;
constexpr double kIotSeconds = 1.0;
constexpr uint64_t kNetPackets = 2000;
constexpr uint64_t kFleetSeed = 7;
constexpr uint32_t kFleetRounds = 60;

__attribute__((format(printf, 1, 2))) std::string
format(const char *fmt, ...)
{
    char buffer[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buffer, sizeof(buffer), fmt, args);
    va_end(args);
    return buffer;
}

void
coreMarkLines(std::vector<std::string> &out)
{
    for (const sim::CoreConfig &core :
         {sim::CoreConfig::flute(), sim::CoreConfig::ibex()}) {
        const workloads::CoreMarkTableRow row =
            workloads::runCoreMarkRow(core);
        const std::pair<const char *, const workloads::CoreMarkResult *>
            configs[] = {{"rv32e", &row.baseline},
                         {"caps", &row.withCaps},
                         {"caps-filter", &row.withFilter}};
        for (const auto &[name, r] : configs) {
            out.push_back(format(
                "coremark %s %s cycles=%" PRIu64 " instructions=%" PRIu64
                " checksum=0x%08x valid=%d digest=0x%08x",
                row.coreName.c_str(), name, r->cycles, r->instructions,
                r->checksum, r->valid ? 1 : 0, r->finalDigest));
        }
    }
}

void
iotLines(std::vector<std::string> &out)
{
    for (const sim::CoreConfig &core :
         {sim::CoreConfig::ibex(), sim::CoreConfig::flute()}) {
        for (const alloc::TemporalMode mode :
             {alloc::TemporalMode::HardwareRevocation,
              alloc::TemporalMode::SoftwareRevocation}) {
            workloads::IotAppConfig config;
            config.core = core;
            config.mode = mode;
            config.simSeconds = kIotSeconds;
            const workloads::IotAppResult r = workloads::runIotApp(config);
            out.push_back(format(
                "iot %s %s ok=%d cycles=%" PRIu64 " packets=%" PRIu64
                " jsTicks=%" PRIu64 " allocations=%" PRIu64
                " sweeps=%" PRIu64 " calls=%" PRIu64 " led=0x%x"
                " calleeFaults=%" PRIu64 " handlers=%" PRIu64
                " unwinds=%" PRIu64 " quarantines=%" PRIu64
                " restarts=%" PRIu64 " kicks=%" PRIu64
                " busRetries=%" PRIu64 " traps=%" PRIu64
                " digest=0x%08x",
                core.name.c_str(), alloc::temporalModeName(mode),
                r.ok ? 1 : 0, r.cycles, r.packetsProcessed, r.jsTicks,
                r.heapAllocations, r.revocationSweeps,
                r.crossCompartmentCalls, r.finalLedState, r.calleeFaults,
                r.handlerInvocations, r.forcedUnwinds,
                r.watchdogQuarantines, r.watchdogRestarts, r.revokerKicks,
                r.busRetries, r.trapsTaken, r.finalDigest));
        }
    }
}

/** Campaign lines; also reports which fault sites were drawn. */
void
campaignLines(std::vector<std::string> &out, std::set<uint32_t> &sites)
{
    for (const fault::CampaignWorkload workload :
         {fault::CampaignWorkload::Iot,
          fault::CampaignWorkload::CoreMark}) {
        fault::CampaignConfig config;
        config.seed = kCampaignSeed;
        config.injections = kCampaignInjections;
        config.workload = workload;
        const fault::CampaignReport report =
            fault::runFaultCampaign(config);
        for (const fault::CampaignRun &run : report.details) {
            sites.insert(static_cast<uint32_t>(run.plan.site));
            out.push_back(format(
                "campaign %s %u site=%s fired=%d outcome=%s"
                " violations=%" PRIu64 " digest=0x%08x",
                fault::campaignWorkloadName(workload), run.index,
                fault::faultSiteName(run.plan.site), run.fired ? 1 : 0,
                fault::outcomeName(run.outcome), run.safetyViolations,
                run.finalDigest));
        }
    }
}

void
netLines(std::vector<std::string> &out)
{
    const std::pair<const char *, sim::CoreConfig> cores[] = {
        {"ibex", sim::CoreConfig::ibex()},
        {"flute", sim::CoreConfig::flute()}};
    for (const auto &[name, core] : cores) {
        const bench::NetRow r = bench::runNetCore(core, name, kNetPackets);
        const auto stat = [&](const char *key) -> uint64_t {
            const auto it = r.stats.find(key);
            return it == r.stats.end() ? 0 : it->second;
        };
        out.push_back(format(
            "net %s ok=%d packets=%" PRIu64 " bytes=%" PRIu64
            " cyclesPerPacket=%.4f drops=%" PRIu64 " errors=%" PRIu64
            " parseDrops=%" PRIu64 " acks=%" PRIu64 " tx=%" PRIu64
            " maxQuarantine=%" PRIu64 " leaked=%" PRId64
            " calleeFaults=%" PRIu64 " traps=%" PRIu64
            " loads=%" PRIu64 " stores=%" PRIu64 " capLoads=%" PRIu64
            " capStores=%" PRIu64 " wordsExamined=%" PRIu64
            " portCycles=%" PRIu64 " snoopReloads=%" PRIu64
            " digest=0x%08x",
            name, r.ok ? 1 : 0, r.packetsAccepted, r.bytesAccepted,
            r.cyclesPerPacket, r.nicRxDrops, r.nicRxErrors, r.parseDrops,
            r.acksSent, r.nicTxPackets, r.maxQuarantineBytes,
            r.leakedBytes, r.calleeFaults, r.traps,
            stat("machine.loads"), stat("machine.stores"),
            stat("machine.capLoads"), stat("machine.capStores"),
            stat("hw_revoker.wordsExamined"),
            stat("hw_revoker.portCycles"),
            stat("hw_revoker.snoopReloads"), r.finalDigest));
    }
}

std::string
streamLine(const char *what, const std::vector<uint8_t> &bytes)
{
    return format("%s bytes=%zu crc=0x%08x", what, bytes.size(),
                  snapshot::crc32(bytes.data(), bytes.size()));
}

/** A snapshot image's digest is its trailing image CRC. */
std::string
imageLine(const char *what, std::vector<uint8_t> bytes)
{
    const size_t size = bytes.size();
    snapshot::SnapshotImage image;
    image.data = std::move(bytes);
    return format("%s bytes=%zu digest=0x%08x", what, size,
                  image.digest());
}

/** Every node's saveImage() after 60 rounds of a 4-node fleet under
 * lossy links and rolling partitions, raw and with the application
 * tier (flows, broker, firewall admission). A narrow ARQ window, a
 * flow idle timeout and one extra pump before each image leave every
 * container in the node's layout non-empty somewhere in the fleet:
 * ARQ pending/backlog/dedup queues, flow tables, close reasons,
 * queued replies and broker queues. */
void
fleetLines(std::vector<std::string> &out)
{
    for (const sim::CoreConfig &core :
         {sim::CoreConfig::ibex(), sim::CoreConfig::flute()}) {
        for (const bool appTier : {false, true}) {
            sim::FleetConfig fc;
            fc.nodes = 4;
            fc.seed = kFleetSeed;
            fc.core = core;
            fc.threads = 1;
            fc.stack.arqRtoStartCycles = 1024;
            fc.stack.arqRtoCapCycles = 8192;
            fc.stack.arqMaxRetries = 4;
            fc.stack.arqProbeIntervalCycles = 4096;
            fc.stack.arqWindow = 4;
            fc.flow.timeoutCycles = 1u << 17;
            fc.appTier = appTier;
            if (appTier) {
                fc.stack.firewall.admission = true;
                fc.stack.firewall.rules.push_back(net::FirewallRule{});
            }
            sim::Fleet fleet(fc);
            sim::ChaosConfig cc;
            cc.endRound = kFleetRounds;
            cc.linkFaults.dropPermille = 120;
            cc.linkFaults.corruptPermille = 100;
            cc.linkFaults.duplicatePermille = 100;
            cc.linkFaults.reorderPermille = 100;
            cc.linkFaults.delayPermille = 120;
            cc.partitionPeriod = 12;
            cc.partitionLength = 8;
            sim::ChaosEngine chaos(kFleetSeed, cc);
            fleet.setChaos(&chaos);
            sim::FleetTraffic traffic;
            traffic.sendPermille = 1000;
            fleet.run(kFleetRounds, traffic);
            for (uint32_t id = 0; id < fleet.size(); ++id) {
                sim::FleetNode &node = fleet.node(id);
                node.stack().pump(node.thread());
                const std::string what =
                    format("fleet %s %s node=%u", core.name.c_str(),
                           appTier ? "app" : "raw", id);
                out.push_back(
                    imageLine(what.c_str(), node.saveImage().data));
            }
        }
    }
}

/** The newest checkpoint an IoT run stores before it is stopped half
 * way to its horizon. */
void
iotCheckpointLines(std::vector<std::string> &out,
                   const std::filesystem::path &scratch)
{
    for (const sim::CoreConfig &core :
         {sim::CoreConfig::ibex(), sim::CoreConfig::flute()}) {
        for (const alloc::TemporalMode mode :
             {alloc::TemporalMode::HardwareRevocation,
              alloc::TemporalMode::SoftwareRevocation}) {
            const std::string name =
                format("iot-%s-%s", core.name.c_str(),
                       alloc::temporalModeName(mode));
            snapshot::CheckpointManager checkpoints(scratch.string(),
                                                    name);
            workloads::IotAppConfig config;
            config.core = core;
            config.mode = mode;
            config.simSeconds = kIotSeconds;
            config.checkpointIntervalCycles = 250'000;
            config.checkpoints = &checkpoints;
            config.maxRunCycles =
                static_cast<uint64_t>(kIotSeconds / 2 * config.clockHz);
            workloads::runIotApp(config);
            snapshot::SnapshotImage image;
            const int64_t generation = checkpoints.loadLatest(&image);
            const std::string what =
                format("iot-checkpoint %s %s generation=%" PRId64,
                       core.name.c_str(), alloc::temporalModeName(mode),
                       generation);
            out.push_back(imageLine(what.c_str(), std::move(image.data)));
        }
    }
}

sim::MachineConfig
kernelStormMachine()
{
    sim::MachineConfig config;
    config.sramSize = 256u << 10;
    config.heapOffset = 128u << 10;
    config.heapSize = 64u << 10;
    return config;
}

/** Kernel::serialize after metered malloc/free churn through two
 * allocator tokens (quota ledger, chunk owners, slack, quarantine). */
std::vector<uint8_t>
quotaStormStream(uint64_t seed)
{
    sim::Machine machine(kernelStormMachine());
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    rtos::Compartment &a = kernel.createCompartment("a", 1024, 512);
    rtos::Compartment &b = kernel.createCompartment("b", 1024, 512);
    rtos::Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);
    const cap::Capability tokens[2] = {
        kernel.mintAllocatorCapability(a, 6u << 10),
        kernel.mintAllocatorCapability(b, 12u << 10),
    };
    Rng rng(seed * 0x51ed5eed);
    std::vector<cap::Capability> held;
    for (int n = 0; n < 40; ++n) {
        if (rng.chance(2, 3) || held.empty()) {
            alloc::AllocResult res;
            const cap::Capability ptr = kernel.mallocWith(
                thread, tokens[rng.below(2)], 16 + rng.below(700), &res);
            if (ptr.tag()) {
                held.push_back(ptr);
            }
        } else {
            const uint32_t pick =
                rng.below(static_cast<uint32_t>(held.size()));
            kernel.free(thread, held[pick]);
            held[pick] = held.back();
            held.pop_back();
        }
    }
    snapshot::Writer w;
    kernel.serialize(w);
    return w.take();
}

/** Kernel::serialize mid object-capability revocation storm: a
 * derivation forest with transfers, revoked subtrees and pending
 * scheduled revocations. */
std::vector<uint8_t>
objectCapStormStream(uint64_t seed)
{
    sim::Machine machine(kernelStormMachine());
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    rtos::Compartment &a = kernel.createCompartment("a");
    rtos::Compartment &b = kernel.createCompartment("b");
    rtos::Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);
    rtos::ObjectCapTable &caps = kernel.objectCaps();
    Rng rng(seed * 0x0bedc0de);
    std::vector<cap::Capability> tokens;
    tokens.push_back(kernel.mintTimeCap(a, 0, 1ull << 40));
    tokens.push_back(kernel.mintMonitorCap(a, b));
    for (int op = 0; op < 40; ++op) {
        const cap::Capability &pick =
            tokens[rng.below(static_cast<uint32_t>(tokens.size()))];
        switch (rng.below(4)) {
          case 0:
          case 1: {
            const uint32_t id = caps.idOf(pick);
            if (id == rtos::ObjectCapTable::kNoParent ||
                caps.typeAt(id) != rtos::ObjectCapType::Time) {
                break;
            }
            uint64_t begin = 0, mark = 0, end = 0;
            caps.timeBoundsAt(id, &begin, &mark, &end);
            if (mark + 2 >= end) {
                break;
            }
            const cap::Capability kid = caps.deriveTime(
                pick, mark, mark + 1 + rng.below(1u << 10));
            if (kid.tag()) {
                tokens.push_back(kid);
            }
            break;
          }
          case 2:
            caps.transfer(pick, rng.below(2));
            break;
          case 3:
            if (rng.chance(1, 2)) {
                caps.revoke(pick);
            } else {
                caps.scheduleRevoke(
                    pick, machine.cycles() + 5'000 + rng.below(20'000));
            }
            break;
        }
    }
    caps.scheduleRevoke(tokens[0], machine.cycles() + 10'000);
    snapshot::Writer w;
    kernel.serialize(w);
    return w.take();
}

void
kernelStreamLines(std::vector<std::string> &out)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        out.push_back(streamLine(
            format("kernel-stream quota seed=%" PRIu64, seed).c_str(),
            quotaStormStream(seed)));
        out.push_back(streamLine(
            format("kernel-stream objcap seed=%" PRIu64, seed).c_str(),
            objectCapStormStream(seed)));
    }
}

/** The bytes of one --repro-all record file per campaign workload. */
void
reproLines(std::vector<std::string> &out,
           const std::filesystem::path &scratch)
{
    for (const fault::CampaignWorkload workload :
         {fault::CampaignWorkload::Iot,
          fault::CampaignWorkload::CoreMark}) {
        fault::CampaignConfig config;
        config.seed = kCampaignSeed;
        config.injections = 1;
        config.startIndex = 105;
        config.workload = workload;
        config.reproDir =
            (scratch / fault::campaignWorkloadName(workload)).string();
        config.reproAll = true;
        const fault::CampaignReport report =
            fault::runFaultCampaign(config);
        std::vector<uint8_t> bytes;
        if (report.reproPaths.size() == 1) {
            std::ifstream in(report.reproPaths[0], std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
        }
        const std::string what =
            format("repro %s index=%u records=%zu",
                   fault::campaignWorkloadName(workload),
                   config.startIndex, report.reproPaths.size());
        out.push_back(imageLine(what.c_str(), bytes));
    }
}

std::vector<std::string>
readLines(const std::string &path, bool *ok)
{
    std::vector<std::string> lines;
    std::ifstream in(path);
    *ok = static_cast<bool>(in);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#') {
            lines.push_back(line);
        }
    }
    return lines;
}

} // namespace

int
main(int argc, char **argv)
{
    bool write = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--write") == 0) {
            write = true;
        } else if (path.empty() && argv[i][0] != '-') {
            path = argv[i];
        } else {
            path.clear();
            break;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr, "usage: golden_digests [--write] FILE\n");
        return 2;
    }

    std::vector<std::string> golden;
    if (!write) {
        bool readOk = false;
        golden = readLines(path, &readOk);
        if (!readOk) {
            std::fprintf(stderr, "golden_digests: cannot read %s\n",
                         path.c_str());
            return 2;
        }
    }

    std::vector<std::string> lines;
    std::set<uint32_t> sites;
    coreMarkLines(lines);
    iotLines(lines);
    campaignLines(lines, sites);
    netLines(lines);
    fleetLines(lines);
    kernelStreamLines(lines);
    {
        // Checkpoint and repro files need a directory; their bytes,
        // not their names, are what the record pins.
        const std::filesystem::path scratch =
            std::filesystem::temp_directory_path() /
            format("cheriot-golden-%d", static_cast<int>(getpid()));
        std::filesystem::remove_all(scratch);
        std::filesystem::create_directories(scratch);
        iotCheckpointLines(lines, scratch);
        reproLines(lines, scratch);
        std::filesystem::remove_all(scratch);
    }

    bool ok = true;
    if (sites.size() != fault::kFaultSiteCount) {
        std::printf("campaign injections drew %zu of %u fault sites\n",
                    sites.size(), fault::kFaultSiteCount);
        ok = false;
    }

    if (write) {
        std::ofstream out(path);
        out << "# Golden end-state digests (seed 0x"
            << format("%" PRIx64, kCampaignSeed)
            << "). Regenerate with: golden_digests --write FILE\n";
        for (const std::string &line : lines) {
            out << line << '\n';
        }
        if (!out) {
            std::fprintf(stderr, "golden_digests: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("wrote %zu lines to %s\n", lines.size(), path.c_str());
        return ok ? 0 : 1;
    }

    size_t mismatches = 0;
    const size_t n = std::max(golden.size(), lines.size());
    for (size_t i = 0; i < n; ++i) {
        const std::string &want = i < golden.size() ? golden[i] : "";
        const std::string &got = i < lines.size() ? lines[i] : "";
        if (want != got) {
            if (++mismatches <= 10) {
                std::printf("entry %zu differs\n  golden: %s\n  actual: %s\n",
                            i + 1, want.c_str(), got.c_str());
            }
        }
    }
    std::printf("golden_digests: %zu lines, %zu mismatches, %zu/%u fault "
                "sites\n",
                lines.size(), mismatches, sites.size(),
                fault::kFaultSiteCount);
    ok = ok && mismatches == 0;
    std::printf("golden_digests %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
