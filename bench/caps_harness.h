/**
 * @file
 * The revocation-storm campaign of `cap_chaos`, shared with
 * `golden_digests`. Four adversarial scenarios run against live
 * workloads:
 *
 *  1. Scheduler storm: tasks bound to a Time derivation tree; the
 *     root is revoked on a deadline while descendants are scheduled.
 *     Every descendant must stop at the next scheduling point — a
 *     typed deferral, never a trap — while ambient tasks keep
 *     running.
 *  2. Channel storm: senders and receivers blocked in bounded waits
 *     on full/empty queues while their Channel capability is revoked
 *     mid-wait. Each must unblock promptly with a typed Revoked and
 *     leak nothing.
 *  3. Monitor storm: quarantine landed under a Monitor capability
 *     that dies mid-recovery; the restart must be refused typed and
 *     the target must heal through the ordinary lazy restart path.
 *  4. Random storm: seeded derive/transfer/revoke/schedule
 *     interleavings with CapTableCorrupt injections; after every
 *     revoke no descendant authority may survive, every scramble
 *     must be refused typed, and the derivation tree must stay
 *     acyclic with nested Time bounds throughout.
 *
 * Each scenario audits the heap back to its post-boot baseline after
 * reclaim. A row passes iff every gate held: zero safety violations,
 * zero forged authority, zero leaked bytes, all degradation typed.
 */

#ifndef CHERIOT_BENCH_CAPS_HARNESS_H
#define CHERIOT_BENCH_CAPS_HARNESS_H

#include "fault/fault_injector.h"
#include "report.h"
#include "rtos/kernel.h"
#include "rtos/message_queue.h"
#include "rtos/object_cap.h"
#include "sim/machine.h"
#include "util/rng.h"

#include <chrono>
#include <string>
#include <vector>

namespace cheriot::bench
{

using cap::Capability;
using rtos::CapResult;
using rtos::Kernel;
using rtos::MessageQueueService;
using rtos::ObjectCapTable;

/** cap_chaos's default seed. */
constexpr uint64_t kCapChaosSeed = 0x0bedc0de;

struct CapsRow
{
    std::string core;
    uint64_t revocations = 0;
    uint64_t descendantsRevoked = 0;
    uint64_t scheduledDeliveries = 0;
    uint64_t timeCapDeferrals = 0;
    uint64_t revokedWaits = 0;
    uint64_t monitorRefusals = 0;
    uint64_t corruptInjections = 0;
    uint64_t corruptRefusals = 0;
    uint64_t staleRefusals = 0;
    uint64_t invariantViolations = 0;
    uint64_t forgedGrants = 0;
    int64_t leakedBytes = 0;
    uint64_t traps = 0;
    double hostSeconds = 0.0;
    bool ok = false;
    StatsMap stats; ///< Merged simStats across scenarios.
};

inline sim::MachineConfig
chaosConfig(const sim::CoreConfig &core)
{
    sim::MachineConfig mc;
    mc.core = core;
    mc.sramSize = 192u << 10;
    mc.heapOffset = 128u << 10;
    mc.heapSize = 64u << 10;
    return mc;
}

inline void
drainQuarantine(Kernel &kernel)
{
    for (int i = 0; i < 8 && kernel.allocator().quarantinedBytes() > 0;
         ++i) {
        kernel.allocator().synchronise();
    }
}

inline uint64_t
heapLevel(Kernel &kernel)
{
    return kernel.allocator().freeBytes() +
           kernel.allocator().slackBytes();
}

/**
 * Scenario 1: revoke a parent Time capability on a deadline while
 * tasks bound to its descendants are scheduled. The gated tasks must
 * stop at the next scheduling point after delivery; the ambient task
 * must be unaffected; nothing may trap.
 */
inline void
schedulerStorm(const sim::CoreConfig &core, CapsRow &row)
{
    sim::Machine machine(chaosConfig(core));
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    kernel.activate(kernel.createThread("main", 1, 4096));
    rtos::Compartment &app = kernel.createCompartment("app");

    ObjectCapTable &caps = kernel.objectCaps();
    rtos::Scheduler &sched = kernel.scheduler();
    const uint64_t trapsBefore = machine.trapCount();

    uint64_t childRuns = 0;
    uint64_t grandRuns = 0;
    uint64_t ambientRuns = 0;
    sched.addPeriodic("child", 2048, 2, [&] { ++childRuns; });
    sched.addPeriodic("grand", 3072, 2, [&] { ++grandRuns; });
    sched.addPeriodic("ambient", 2048, 1, [&] { ++ambientRuns; });

    const Capability root = kernel.mintTimeCap(app, 0, 1ull << 40);
    const Capability child = caps.deriveTime(root, 0, 1ull << 30);
    const Capability grand = caps.deriveTime(child, 0, 1ull << 20);
    if (!grand.tag() || !sched.bindTimeCap("child", child) ||
        !sched.bindTimeCap("grand", grand)) {
        row.invariantViolations++;
        return;
    }

    sched.runFor(60'000);
    if (childRuns == 0 || grandRuns == 0) {
        // The live slices must actually grant before the storm.
        row.invariantViolations++;
    }

    // The storm: the ROOT dies on a deadline mid-run. Recursive
    // revoke must take both scheduled descendants with it.
    caps.scheduleRevoke(root, machine.cycles() + 30'000);
    sched.runFor(120'000);

    const uint64_t childAtStop = childRuns;
    const uint64_t grandAtStop = grandRuns;
    const uint64_t ambientAtStop = ambientRuns;
    sched.runFor(60'000);
    if (childRuns != childAtStop || grandRuns != grandAtStop) {
        // A task ran on a revoked slice: usable descendant authority
        // survived the revoke.
        row.forgedGrants++;
    }
    if (ambientRuns == ambientAtStop) {
        row.invariantViolations++; // Ambient work must be unaffected.
    }
    const uint32_t rootId = caps.idOf(root);
    if (rootId == ObjectCapTable::kNoParent ||
        !caps.subtreeDead(rootId)) {
        row.invariantViolations++;
    }

    row.revocations += caps.revocations.value();
    row.descendantsRevoked += caps.descendantsRevoked.value();
    row.scheduledDeliveries += caps.scheduledRevocations.value();
    row.timeCapDeferrals += sched.timeCapDeferrals.value();
    row.traps += machine.trapCount() - trapsBefore;
    mergeStats(row.stats, machine.simStats().snapshot());
    if (sched.timeCapDeferrals.value() == 0) {
        row.invariantViolations++; // Degradation must be typed.
    }
}

/**
 * Scenario 2: revoke Channel capabilities under full queues with
 * blocked senders (and empty queues with blocked receivers). Each
 * wait must end with a typed Revoked at the next backoff retry, far
 * before its timeout, and the heap must return to baseline.
 */
inline void
channelStorm(const sim::CoreConfig &core, CapsRow &row)
{
    sim::Machine machine(chaosConfig(core));
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    rtos::Thread &thread = kernel.createThread("main", 1, 4096);
    kernel.activate(thread);
    rtos::Compartment &app = kernel.createCompartment("app");

    ObjectCapTable &caps = kernel.objectCaps();
    MessageQueueService service(
        kernel.guest(), kernel.allocator(),
        kernel.loader().sealerFor(cap::kDataOtypeFree0));
    service.setChannelAuthority(&caps);
    const uint64_t trapsBefore = machine.trapCount();

    const Capability msg = kernel.malloc(thread, 8);
    kernel.guest().storeWord(msg, msg.base(), 0x600d);

    drainQuarantine(kernel);
    const uint64_t baseline = heapLevel(kernel);

    for (int round = 0; round < 4; ++round) {
        const Capability queue = service.create(8, 1);
        const Capability rootChan =
            kernel.mintChannelCap(app, queue, true, true);
        // The blocked party holds a *derived* capability: revoking
        // the root must kill it transitively, mid-wait.
        const Capability derived = caps.deriveChannel(
            rootChan, true, (round & 1) != 0);
        if (!derived.tag()) {
            row.invariantViolations++;
            break;
        }
        MessageQueueService::Result result;
        if ((round & 1) == 0) {
            // Blocked sender: fill the queue first.
            if (service.sendVia(rootChan, msg) !=
                MessageQueueService::Result::Ok) {
                row.invariantViolations++;
            }
            caps.scheduleRevoke(rootChan,
                                machine.cycles() + 20'000);
            const uint64_t before = machine.cycles();
            result = service.sendViaTimeout(derived, msg, 1'000'000);
            const uint64_t waited = machine.cycles() - before;
            if (result == MessageQueueService::Result::Revoked &&
                waited < 100'000) {
                row.revokedWaits++;
            } else {
                row.invariantViolations++;
            }
        } else {
            // Blocked receiver on an empty queue.
            caps.scheduleRevoke(rootChan,
                                machine.cycles() + 20'000);
            const uint64_t before = machine.cycles();
            result = service.receiveViaTimeout(derived, msg,
                                               1'000'000);
            const uint64_t waited = machine.cycles() - before;
            if (result == MessageQueueService::Result::Revoked &&
                waited < 100'000) {
                row.revokedWaits++;
            } else {
                row.invariantViolations++;
            }
        }
        // No usable authority survives on either token, typed both
        // before and after reclaim.
        if (service.sendVia(derived, msg) !=
                MessageQueueService::Result::Revoked ||
            service.sendVia(rootChan, msg) !=
                MessageQueueService::Result::Revoked) {
            row.forgedGrants++;
        }
        caps.reclaim();
        if (service.sendVia(derived, msg) !=
            MessageQueueService::Result::InvalidHandle) {
            row.forgedGrants++;
        }
        service.destroy(queue);
    }

    row.staleRefusals += caps.staleTokensRefused.value();
    drainQuarantine(kernel);
    row.leakedBytes += static_cast<int64_t>(baseline) -
                       static_cast<int64_t>(heapLevel(kernel));
    row.traps += machine.trapCount() - trapsBefore;
    mergeStats(row.stats, machine.simStats().snapshot());
}

/**
 * Scenario 3: the Monitor capability dies between quarantine and
 * restart. The restart must be refused typed; the quarantined
 * compartment must still heal through the lazy restart path.
 */
inline void
monitorStorm(const sim::CoreConfig &core, CapsRow &row)
{
    sim::Machine machine(chaosConfig(core));
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    kernel.activate(kernel.createThread("main", 1, 4096));
    rtos::Compartment &supervisor =
        kernel.createCompartment("supervisor");
    rtos::Compartment &worker = kernel.createCompartment("worker");

    ObjectCapTable &caps = kernel.objectCaps();
    rtos::Watchdog &dog = kernel.watchdog();
    const uint64_t trapsBefore = machine.trapCount();

    const Capability monitor =
        kernel.mintMonitorCap(supervisor, worker);
    if (kernel.requestQuarantine(monitor, worker) != CapResult::Ok ||
        !dog.shouldReject(worker, machine.cycles())) {
        row.invariantViolations++;
        return;
    }
    // The storm: revoke mid-recovery, then try to restart.
    if (caps.revoke(monitor) != CapResult::Ok) {
        row.invariantViolations++;
    }
    const CapResult verdict = kernel.requestRestart(monitor, worker);
    if (verdict != CapResult::Revoked) {
        row.forgedGrants += (verdict == CapResult::Ok) ? 1 : 0;
        row.invariantViolations += (verdict == CapResult::Ok) ? 0 : 1;
    }
    // A revoked Monitor must not quarantine anybody either.
    if (kernel.requestQuarantine(monitor, worker) == CapResult::Ok) {
        row.forgedGrants++;
    }
    // The worker heals through the ordinary lazy path regardless.
    machine.idle(8'192);
    if (dog.shouldReject(worker, machine.cycles())) {
        row.invariantViolations++;
    }
    row.monitorRefusals += dog.monitorActionsRefused.value();
    row.revocations += caps.revocations.value();
    row.traps += machine.trapCount() - trapsBefore;
    mergeStats(row.stats, machine.simStats().snapshot());
}

/**
 * Scenario 4: a seeded random derive/transfer/revoke/schedule storm
 * with CapTableCorrupt injections riding along. Tree invariants are
 * checked continuously; at the end everything is revoked, reclaimed,
 * and the heap must be back at baseline.
 */
inline void
randomStorm(const sim::CoreConfig &core, uint64_t seed, CapsRow &row)
{
    sim::Machine machine(chaosConfig(core));
    Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    kernel.activate(kernel.createThread("main", 1, 4096));
    rtos::Compartment &app = kernel.createCompartment("app");

    ObjectCapTable &caps = kernel.objectCaps();
    fault::FaultInjector injector(seed ^ 0xca9);
    caps.attachInjector(&injector);
    const uint64_t trapsBefore = machine.trapCount();

    drainQuarantine(kernel);
    const uint64_t baseline = heapLevel(kernel);

    Rng rng = Rng::forStream(seed, 0x570);
    std::vector<Capability> tokens;
    tokens.push_back(kernel.mintTimeCap(app, 0, 1ull << 40));

    uint64_t refusedAtArm = 0;
    bool armed = false;
    uint32_t armCount = 0;
    uint64_t touches = 0;
    const auto maybeArm = [&] {
        if (armed || armCount >= 3) {
            return;
        }
        fault::FaultPlan plan;
        plan.site = fault::FaultSite::CapTableCorrupt;
        plan.triggerTransaction = touches + 2 + rng.below(8);
        plan.param = rng.next() | 1u;
        injector.arm(plan);
        refusedAtArm = caps.corruptEntriesRefused.value();
        armed = true;
        ++armCount;
    };
    maybeArm();

    for (int op = 0; op < 400; ++op) {
        // Keep the storm fed: without fresh roots an early root
        // revoke would leave nothing but stale-token churn.
        if ((op % 40) == 0) {
            const Capability fresh =
                kernel.mintTimeCap(app, 0, 1ull << 40);
            if (fresh.tag()) {
                tokens.push_back(fresh);
            }
        }
        const bool firedBefore = injector.fired();
        const Capability &pick =
            tokens[rng.below(static_cast<uint32_t>(tokens.size()))];
        switch (rng.below(6)) {
          case 0:
          case 1: { // Derive a fresh sub-slice.
            const uint32_t pid = caps.idOf(pick);
            if (pid == ObjectCapTable::kNoParent ||
                !caps.aliveAt(pid)) {
                break;
            }
            uint64_t begin = 0, mark = 0, end = 0;
            caps.timeBoundsAt(pid, &begin, &mark, &end);
            if (mark + 2 >= end) {
                break;
            }
            ++touches;
            const Capability kid = caps.deriveTime(
                pick, mark, mark + 1 + rng.below(1u << 12));
            if (kid.tag()) {
                tokens.push_back(kid);
            }
            break;
          }
          case 2:
            ++touches;
            caps.transfer(pick, rng.below(2));
            break;
          case 3: { // Immediate revoke: subtree must die with it.
            ++touches;
            const uint32_t id = caps.idOf(pick);
            const CapResult verdict = caps.revoke(pick);
            // A scramble landing on this very presentation is
            // refused InvalidCap — typed, and the canary kill takes
            // the subtree down anyway. Anything else must be Ok.
            const bool corrupted =
                injector.fired() && !firedBefore;
            if (verdict != CapResult::Ok &&
                !(corrupted && verdict == CapResult::InvalidCap)) {
                row.invariantViolations++;
            }
            if (id != ObjectCapTable::kNoParent &&
                !caps.subtreeDead(id)) {
                row.invariantViolations++;
            }
            break;
          }
          case 4:
            ++touches;
            caps.scheduleRevoke(
                pick, machine.cycles() + 1'000 + rng.below(30'000));
            break;
          case 5: { // Consumer check + clock advance.
            ++touches;
            const CapResult verdict = caps.checkTime(pick, 0);
            if (verdict == CapResult::Ok) {
                const uint32_t id = caps.idOf(pick);
                if (id == ObjectCapTable::kNoParent ||
                    !caps.aliveAt(id)) {
                    row.forgedGrants++; // Granted on a dead entry.
                }
            }
            machine.idle(500 + rng.below(4'000));
            break;
          }
        }

        if (!firedBefore && injector.fired()) {
            // The scramble landed on this op: it must have been
            // refused typed via the canary, never absorbed.
            row.corruptInjections++;
            if (caps.corruptEntriesRefused.value() != refusedAtArm + 1) {
                row.forgedGrants++;
            } else {
                row.corruptRefusals++;
            }
            armed = false;
            maybeArm();
        }

        // Periodic tree sweep over the *live* forest: acyclic, live
        // parents, nested bounds. Dead entries are skipped — a
        // corruption-killed entry's links are whatever the scramble
        // left behind, which is exactly why they carry no authority.
        if ((op & 15) == 0) {
            for (uint32_t id = 0; id < caps.size(); ++id) {
                if (!caps.aliveAt(id)) {
                    continue;
                }
                const uint32_t parent = caps.parentOf(id);
                if (parent == ObjectCapTable::kNoParent) {
                    continue;
                }
                if (parent >= id) {
                    row.invariantViolations++;
                    continue;
                }
                if (!caps.aliveAt(parent)) {
                    row.invariantViolations++;
                }
                uint64_t cb = 0, cm = 0, ce = 0;
                uint64_t pb = 0, pm = 0, pe = 0;
                caps.timeBoundsAt(id, &cb, &cm, &ce);
                caps.timeBoundsAt(parent, &pb, &pm, &pe);
                if (cb < pb || ce > pe || ce > pm) {
                    row.invariantViolations++;
                }
            }
        }
    }

    // Teardown: deliver what is pending, kill everything, reclaim,
    // and audit the heap back to baseline. The injector is detached
    // first so a still-armed plan cannot fire uncounted.
    caps.attachInjector(nullptr);
    machine.idle(40'000);
    for (const Capability &token : tokens) {
        if (caps.revoke(token) != CapResult::Ok) {
            row.invariantViolations++;
        }
    }
    for (uint32_t id = 0; id < caps.size(); ++id) {
        if (caps.aliveAt(id)) {
            row.invariantViolations++; // Revocation must be total.
        }
    }
    caps.reclaim();
    drainQuarantine(kernel);
    row.leakedBytes += static_cast<int64_t>(baseline) -
                       static_cast<int64_t>(heapLevel(kernel));

    row.revocations += caps.revocations.value();
    row.descendantsRevoked += caps.descendantsRevoked.value();
    row.scheduledDeliveries += caps.scheduledRevocations.value();
    row.staleRefusals += caps.staleTokensRefused.value();
    row.traps += machine.trapCount() - trapsBefore;
    mergeStats(row.stats, machine.simStats().snapshot());
}

inline CapsRow
runCapsCore(const sim::CoreConfig &core, const std::string &name,
        uint64_t seed)
{
    CapsRow row;
    row.core = name;
    const auto startWall = std::chrono::steady_clock::now();

    schedulerStorm(core, row);
    channelStorm(core, row);
    monitorStorm(core, row);
    for (uint64_t round = 0; round < 3; ++round) {
        randomStorm(core, seed + round, row);
    }

    const auto wall = std::chrono::steady_clock::now() - startWall;
    row.hostSeconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(wall)
            .count();
    row.ok = row.invariantViolations == 0 && row.forgedGrants == 0 &&
             row.leakedBytes == 0 && row.traps == 0 &&
             row.revokedWaits >= 4 && row.timeCapDeferrals > 0 &&
             row.scheduledDeliveries > 0 && row.monitorRefusals > 0 &&
             row.corruptInjections > 0 &&
             row.corruptRefusals == row.corruptInjections;
    return row;
}

inline void
describe(const CapsRow &r, Fields &f)
{
    f.put("core", r.core)
        .put("revocations", r.revocations)
        .put("descendants_revoked", r.descendantsRevoked)
        .put("scheduled_deliveries", r.scheduledDeliveries)
        .put("time_cap_deferrals", r.timeCapDeferrals)
        .put("revoked_waits", r.revokedWaits)
        .put("monitor_refusals", r.monitorRefusals)
        .put("corrupt_injections", r.corruptInjections)
        .put("corrupt_refusals", r.corruptRefusals)
        .put("stale_refusals", r.staleRefusals)
        .put("invariant_violations", r.invariantViolations)
        .put("forged_grants", r.forgedGrants)
        .put("leaked_bytes", r.leakedBytes)
        .put("traps", r.traps)
        .host("host_seconds", r.hostSeconds)
        .put("ok", r.ok)
        .put("stats", r.stats);
}

/** The campaign on Ibex, then on Flute. */
inline std::vector<CapsRow>
runCapsRows(uint64_t seed)
{
    return {runCapsCore(sim::CoreConfig::ibex(), "ibex", seed),
            runCapsCore(sim::CoreConfig::flute(), "flute", seed)};
}

} // namespace cheriot::bench

#endif // CHERIOT_BENCH_CAPS_HARNESS_H
