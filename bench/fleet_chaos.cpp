/**
 * @file
 * Fleet-scale chaos and rogue-containment campaigns (fleet_harness.h)
 * on Ibex and Flute. Emits BENCH_fleet.json: frames/sec, per-device
 * delivery latency, the ARQ and fabric counters and each node's stats.
 * Exit 0 iff every row held the fleet invariants.
 */

#include "flags.h"
#include "fleet_harness.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace cheriot;

namespace
{

void
printRow(const bench::FleetRow &row)
{
    uint32_t p99Max = 0;
    for (const bench::LatencyRow &lat : row.latency) {
        p99Max = std::max(p99Max, lat.p99);
    }
    std::printf("%-12s %-6s %3u nodes %5u rounds  %8.0f frames/s "
                "(host)  sends=%llu rtx=%llu dups=%llu rejoins=%llu "
                "p99<=%u rounds  %s\n",
                row.kind.c_str(), row.core.c_str(), row.nodes,
                row.rounds, row.framesPerSec,
                static_cast<unsigned long long>(row.sendsAccepted),
                static_cast<unsigned long long>(row.retransmits),
                static_cast<unsigned long long>(row.duplicatesDropped),
                static_cast<unsigned long long>(row.rejoins), p99Max,
                row.ok ? "OK" : "FAILED");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags("fleet_chaos",
                       "[--rogue] [--nodes N] [--rounds N] [--seed S] "
                       "[--out FILE]",
                       argc, argv);
    const bool rogueMode = flags.has("--rogue");
    const uint32_t nodes =
        static_cast<uint32_t>(flags.u64("--nodes", 16, 4, UINT32_MAX));
    const uint32_t rounds =
        static_cast<uint32_t>(flags.u64("--rounds", 150, 0, UINT32_MAX));
    const uint64_t seed = flags.u64("--seed", bench::kFleetChaosSeed);
    const std::string outPath = flags.str("--out", "BENCH_fleet.json");
    flags.done();

    std::printf("fleet %s campaign: %u nodes, %u rounds, "
                "seed 0x%llx\n\n",
                rogueMode ? "rogue-containment" : "chaos", nodes,
                rounds, static_cast<unsigned long long>(seed));
    bench::Report report{"fleet_chaos"};
    bool ok = true;
    for (const bench::FleetRow &row :
         bench::runFleetRows(nodes, rounds, seed, rogueMode)) {
        printRow(row);
        report.rows.push_back(bench::Fields::of(row));
        ok = ok && row.ok;
    }
    if (!report.write(outPath, ok)) {
        return 2;
    }
    std::printf("\nwrote %s\nfleet_chaos %s\n", outPath.c_str(),
                ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
