/**
 * @file
 * Revocation-storm chaos campaign (caps_harness.h) on Ibex and Flute.
 * Emits BENCH_caps.json; exit 0 iff every gate held on both cores.
 */

#include "caps_harness.h"
#include "flags.h"

#include <cstdio>
#include <string>

using namespace cheriot;

namespace
{

void
printRow(const bench::CapsRow &row)
{
    std::printf(
        "%-6s revokes=%llu (desc=%llu sched=%llu) deferrals=%llu "
        "revoked-waits=%llu monitor-refused=%llu corrupt=%llu/%llu "
        "violations=%llu forged=%llu leak=%lld traps=%llu %s\n",
        row.core.c_str(),
        static_cast<unsigned long long>(row.revocations),
        static_cast<unsigned long long>(row.descendantsRevoked),
        static_cast<unsigned long long>(row.scheduledDeliveries),
        static_cast<unsigned long long>(row.timeCapDeferrals),
        static_cast<unsigned long long>(row.revokedWaits),
        static_cast<unsigned long long>(row.monitorRefusals),
        static_cast<unsigned long long>(row.corruptRefusals),
        static_cast<unsigned long long>(row.corruptInjections),
        static_cast<unsigned long long>(row.invariantViolations),
        static_cast<unsigned long long>(row.forgedGrants),
        static_cast<long long>(row.leakedBytes),
        static_cast<unsigned long long>(row.traps),
        row.ok ? "OK" : "FAILED");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags("cap_chaos", "[--seed N] [--out FILE]", argc,
                       argv);
    const uint64_t seed = flags.u64("--seed", bench::kCapChaosSeed);
    const std::string outPath = flags.str("--out", "BENCH_caps.json");
    flags.done();

    std::printf("object-capability revocation-storm campaign "
                "(seed 0x%llx)\n\n",
                static_cast<unsigned long long>(seed));
    bench::Report report{"cap_chaos"};
    bool ok = true;
    for (const bench::CapsRow &row : bench::runCapsRows(seed)) {
        printRow(row);
        report.rows.push_back(bench::Fields::of(row));
        ok = ok && row.ok;
    }
    if (!report.write(outPath, ok)) {
        return 2;
    }
    std::printf("\nwrote %s\ncap_chaos %s\n", outPath.c_str(),
                ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
