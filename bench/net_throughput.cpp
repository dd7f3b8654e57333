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

#include "flags.h"
#include "net_harness.h"

#include <cstdio>
#include <string>
#include <utility>

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

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags("net_throughput", "[--packets N] [--out FILE]",
                       argc, argv);
    const uint64_t packets = flags.u64("--packets", 1'000'000);
    const std::string outPath = flags.str("--out", "BENCH_net.json");
    flags.done();

    std::printf("NIC + zero-copy stack throughput: %llu packets per "
                "core\n\n",
                static_cast<unsigned long long>(packets));
    bench::Report report{"net_throughput"};
    bool ok = true;
    for (const auto &[core, name] :
         {std::pair{sim::CoreConfig::ibex(), "ibex"},
          std::pair{sim::CoreConfig::flute(), "flute"}}) {
        const bench::NetRow row = bench::runNetCore(core, name, packets);
        printRow(row);
        report.rows.push_back(bench::Fields::of(row));
        ok = ok && row.ok;
    }
    if (!report.write(outPath, ok)) {
        return 2;
    }
    std::printf("\nwrote %s\nnet_throughput %s\n", outPath.c_str(),
                ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
