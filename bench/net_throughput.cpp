/**
 * @file
 * Million-packet traffic harness for the NIC + zero-copy network
 * stack: frames are delivered into the simulated NIC's RX descriptor
 * ring as fast as the ring admits them, the driver pump lends each
 * landed buffer zero-copy to the firewall, and the firewall's
 * consumer reads the payload through a read-only capability view.
 *
 * Per core (Ibex and Flute) the harness reports packets/sec (host
 * wall clock), cycles/packet (simulated), NIC drop/error counters,
 * the high-water quarantine depth, and a heap-leak audit: after the
 * final drain and a revocation sweep, the free-byte count must return
 * exactly to the post-boot baseline — every one of the million lent
 * buffers came back through the claim()/free() lifecycle.
 *
 * Emits BENCH_net.json. Exit 0 iff every row met the contract:
 * target packets accepted, zero leaked bytes, zero callee faults.
 */

#include "net_harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace cheriot;

namespace
{

void
printRow(const bench::NetRow &row)
{
    std::printf("%-6s %10llu packets  %8.0f pkt/s (host)  "
                "%7.1f cycles/pkt  drops=%llu errors=%llu "
                "maxquar=%llu leak=%lld %s\n",
                row.core.c_str(),
                static_cast<unsigned long long>(row.packetsAccepted),
                row.packetsPerSec, row.cyclesPerPacket,
                static_cast<unsigned long long>(row.nicRxDrops),
                static_cast<unsigned long long>(row.nicRxErrors),
                static_cast<unsigned long long>(row.maxQuarantineBytes),
                static_cast<long long>(row.leakedBytes),
                row.ok ? "OK" : "FAILED");
}

void
writeJson(const std::vector<bench::NetRow> &rows,
          const std::string &path, bool ok)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        warn("net_throughput: cannot write %s", path.c_str());
        return;
    }
    bench::StatsMap merged;
    for (const bench::NetRow &row : rows) {
        bench::mergeStats(merged, row.stats);
    }
    std::fprintf(out, "{\n  \"bench\": \"net_throughput\",\n");
    std::fprintf(out, "  \"ok\": %s,\n  ", ok ? "true" : "false");
    bench::writeStatsBlock(out, merged, "  ");
    std::fprintf(out, ",\n  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const bench::NetRow &r = rows[i];
        std::fprintf(
            out,
            "    {\"core\": \"%s\", \"packets\": %llu, "
            "\"bytes\": %llu, \"host_seconds\": %.3f, "
            "\"packets_per_sec\": %.0f, \"cycles_per_packet\": %.2f, "
            "\"nic_rx_drops\": %llu, \"nic_rx_errors\": %llu, "
            "\"parse_drops\": %llu, \"acks_sent\": %llu, "
            "\"nic_tx_packets\": %llu, \"max_quarantine_bytes\": %llu, "
            "\"leaked_bytes\": %lld, \"callee_faults\": %llu, "
            "\"traps\": %llu, \"ok\": %s}%s\n",
            r.core.c_str(),
            static_cast<unsigned long long>(r.packetsAccepted),
            static_cast<unsigned long long>(r.bytesAccepted),
            r.hostSeconds, r.packetsPerSec, r.cyclesPerPacket,
            static_cast<unsigned long long>(r.nicRxDrops),
            static_cast<unsigned long long>(r.nicRxErrors),
            static_cast<unsigned long long>(r.parseDrops),
            static_cast<unsigned long long>(r.acksSent),
            static_cast<unsigned long long>(r.nicTxPackets),
            static_cast<unsigned long long>(r.maxQuarantineBytes),
            static_cast<long long>(r.leakedBytes),
            static_cast<unsigned long long>(r.calleeFaults),
            static_cast<unsigned long long>(r.traps),
            r.ok ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t packets = 1'000'000;
    std::string outPath = "BENCH_net.json";
    std::string statsPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
            packets = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--stats-json") == 0 &&
                   i + 1 < argc) {
            statsPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: net_throughput [--packets N] "
                         "[--out FILE] [--stats-json FILE]\n");
            return 2;
        }
    }

    std::printf("NIC + zero-copy stack throughput: %llu packets per "
                "core\n\n",
                static_cast<unsigned long long>(packets));
    std::vector<bench::NetRow> rows;
    rows.push_back(
        bench::runNetCore(sim::CoreConfig::ibex(), "ibex", packets));
    printRow(rows.back());
    rows.push_back(
        bench::runNetCore(sim::CoreConfig::flute(), "flute", packets));
    printRow(rows.back());

    bool ok = true;
    for (const auto &row : rows) {
        ok = ok && row.ok;
    }
    writeJson(rows, outPath, ok);
    if (!statsPath.empty()) {
        bench::StatsMap merged;
        for (const auto &row : rows) {
            bench::mergeStats(merged, row.stats);
        }
        bench::writeStatsJson(statsPath, "net_throughput", merged);
    }
    std::printf("\nwrote %s\nnet_throughput %s\n", outPath.c_str(),
                ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
