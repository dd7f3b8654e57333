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
 *   - the NIC + zero-copy network path on both cores.
 *
 * Usage: golden_digests FILE          compare against FILE (exit 1 on
 *                                     any difference)
 *        golden_digests --write FILE  regenerate FILE
 */

#include "fault/campaign.h"
#include "net_harness.h"
#include "workloads/coremark/coremark.h"
#include "workloads/iot/iot_app.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

using namespace cheriot;

namespace
{

constexpr uint64_t kCampaignSeed = 0xc8e210a5u;
constexpr uint32_t kCampaignInjections = 106;
constexpr double kIotSeconds = 1.0;
constexpr uint64_t kNetPackets = 2000;

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
