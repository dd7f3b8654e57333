/**
 * Resource-exhaustion overload campaign driver.
 *
 * Runs the four adversarial heap workloads (malloc storm, quarantine
 * flood, fragmentation attacker, noisy neighbour) against a
 * quota-metered victim and checks the robustness invariants:
 *
 *   - the victim's in-quota allocations all succeed during the attack
 *     and every fresh allocation is dereferenceable;
 *   - the attacker is contained (quota denials, watchdog quarantine,
 *     or scheduler admission deferrals);
 *   - no stale capability ever dereferences reallocatable memory;
 *   - free heap returns exactly to its pre-attack baseline;
 *   - exhaustion is a recoverable OutOfMemory after bounded backoff —
 *     nothing aborts.
 *
 * Exits non-zero on the first violated invariant (the CI gate).
 *
 * Usage:
 *   stress_campaign [--scenario all|storm|flood|frag|noisy]
 *                   [--mode hardware|software|metadata]
 *                   [--attack-cycles N] [--seed S] [--verbose]
 */

#include "flags.h"
#include "workloads/stress/stress_workloads.h"
#include "util/log.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

using namespace cheriot;
using workloads::StressConfig;
using workloads::StressResult;
using workloads::StressScenario;

namespace
{

void
printResult(const StressResult &r)
{
    std::printf("%-16s %-9s  victim %llu/%llu ok  attacker "
                "%llu denied / %llu throttled / %llu quarantines / "
                "%llu deferrals  uaf %llu/%llu  heap %llu->%llu  "
                "[%s%s%s%s]\n",
                workloads::stressScenarioName(r.scenario),
                alloc::temporalModeName(r.mode),
                static_cast<unsigned long long>(r.victimSuccesses),
                static_cast<unsigned long long>(r.victimAttempts),
                static_cast<unsigned long long>(r.attackerQuotaDenials),
                static_cast<unsigned long long>(r.attackerThrottled),
                static_cast<unsigned long long>(r.attackerQuarantines),
                static_cast<unsigned long long>(r.admissionDeferrals),
                static_cast<unsigned long long>(r.uafHits),
                static_cast<unsigned long long>(r.uafProbes),
                static_cast<unsigned long long>(r.baselineFreeBytes),
                static_cast<unsigned long long>(r.finalFreeBytes),
                r.victimIntact() ? "V" : "-",
                r.attackerContained() ? "A" : "-",
                r.temporallySafe() ? "T" : "-",
                r.heapRecovered() ? "H" : "-");
}

void
explainFailure(const StressResult &r)
{
    if (!r.victimIntact()) {
        std::fprintf(stderr,
                     "  FAIL victim: %llu failures, %llu deref "
                     "failures out of %llu attempts\n",
                     static_cast<unsigned long long>(r.victimFailures),
                     static_cast<unsigned long long>(
                         r.victimDerefFailures),
                     static_cast<unsigned long long>(r.victimAttempts));
    }
    if (!r.attackerContained()) {
        std::fprintf(stderr, "  FAIL containment: attacker never "
                             "throttled, denied, or deferred\n");
    }
    if (!r.temporallySafe()) {
        std::fprintf(stderr,
                     "  FAIL temporal safety: %llu of %llu stale "
                     "capabilities dereferenced\n",
                     static_cast<unsigned long long>(r.uafHits),
                     static_cast<unsigned long long>(r.uafProbes));
    }
    if (!r.heapRecovered()) {
        std::fprintf(
            stderr,
            "  FAIL heap recovery: baseline %llu, final %llu "
            "(+%llu still quarantined)\n",
            static_cast<unsigned long long>(r.baselineFreeBytes),
            static_cast<unsigned long long>(r.finalFreeBytes),
            static_cast<unsigned long long>(r.finalQuarantinedBytes));
    }
    if (r.backoffTimeouts != 0) {
        std::fprintf(stderr,
                     "  FAIL backpressure: %llu backoff timeouts on a "
                     "healthy revoker\n",
                     static_cast<unsigned long long>(r.backoffTimeouts));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags("stress_campaign",
                       "[--scenario all|storm|flood|frag|noisy] "
                       "[--mode hardware|software|metadata] "
                       "[--attack-cycles N] [--seed S] [--verbose]",
                       argc, argv);
    std::vector<StressScenario> scenarios = {
        StressScenario::MallocStorm,
        StressScenario::QuarantineFlood,
        StressScenario::Fragmentation,
        StressScenario::NoisyNeighbor,
    };
    const std::string scenario = flags.str("--scenario", "all");
    if (scenario == "storm") {
        scenarios = {StressScenario::MallocStorm};
    } else if (scenario == "flood") {
        scenarios = {StressScenario::QuarantineFlood};
    } else if (scenario == "frag") {
        scenarios = {StressScenario::Fragmentation};
    } else if (scenario == "noisy") {
        scenarios = {StressScenario::NoisyNeighbor};
    } else if (scenario != "all") {
        flags.refuse("unknown scenario '" + scenario + "'");
    }
    StressConfig base;
    const std::string mode = flags.str("--mode", "hardware");
    if (mode == "software") {
        base.mode = alloc::TemporalMode::SoftwareRevocation;
    } else if (mode == "metadata") {
        base.mode = alloc::TemporalMode::MetadataOnly;
    } else if (mode != "hardware") {
        flags.refuse("unknown mode '" + mode + "'");
    }
    base.attackCycles = flags.u64("--attack-cycles", base.attackCycles);
    base.seed = flags.u64("--seed", base.seed);
    const bool verbose = flags.has("--verbose");
    flags.done();

    setLogLevel(verbose ? LogLevel::Info : LogLevel::Error);

    int failures = 0;
    for (const StressScenario scenario : scenarios) {
        StressConfig config = base;
        config.scenario = scenario;
        const StressResult result = workloads::runStressScenario(config);
        printResult(result);
        if (!result.ok()) {
            failures++;
            explainFailure(result);
        }
    }
    if (failures != 0) {
        std::fprintf(stderr, "stress_campaign: %d scenario(s) violated "
                             "invariants\n",
                     failures);
        return 1;
    }
    std::printf("stress_campaign: all invariants held\n");
    return 0;
}
