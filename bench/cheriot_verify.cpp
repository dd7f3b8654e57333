/**
 * @file
 * cheriot-verify CLI: static capability-flow analysis and image
 * linting for compartment binaries.
 *
 * Three subjects:
 *   --workload coremark|iot|alloc|stress|all   verify shipped images
 *   --corpus                                   run the seeded corpus
 *   --policy FILE                              custom lint policy
 *
 * Tooling outputs:
 *   --json FILE       aggregate machine-readable report (findings per
 *                     class, analysis statistics, wall time per image)
 *   --graph dot|json  dump the recovered call graph of every analyzed
 *                     program image to stdout
 *
 * Exit codes: 0 = no findings, 1 = findings reported, 2 = usage/IO
 * error or broken corpus contract. CI runs the workloads expecting 0
 * and the corpus expecting 1.
 */

#include "flags.h"
#include "net/net_stack.h"
#include "report.h"
#include "rtos/kernel.h"
#include "verify/callgraph.h"
#include "verify/corpus.h"
#include "verify/policy.h"
#include "verify/verifier.h"
#include "workloads/coremark/coremark.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace
{

using namespace cheriot;

/** One verified image plus its wall-clock cost. */
struct TimedReport
{
    verify::Report report;
    double wallMs = 0.0;
    /** simStats of the machine that hosted the image's boot (empty
     * for the static-image workloads with no machine). */
    bench::StatsMap stats;
};

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Analyze the CoreMark guest binary (the one real-ISA workload). */
TimedReport
verifyCoreMark(const std::string &graphMode)
{
    workloads::CoreMarkConfig config;
    workloads::CoreMarkBuilder builder(config);
    verify::ProgramImage image;
    image.name = "coremark";
    image.base = workloads::CoreMarkBuilder::kProgramBase;
    image.entry = builder.entry();
    image.words = builder.build();
    const auto start = std::chrono::steady_clock::now();
    verify::CallGraph graph;
    TimedReport timed;
    timed.report = verify::analyzeProgram(image, {}, &graph);
    timed.wallMs = msSince(start);
    if (graphMode == "dot") {
        std::printf("%s", graph.toDot(image.name).c_str());
    } else if (graphMode == "json") {
        std::printf("%s\n", graph.toJson(image.name).c_str());
    }
    return timed;
}

/** Boot the IoT image's structure (compartments, threads, heap) and
 * lint it against the policy. Entry bodies are host-modelled, so the
 * manifest is the verifiable surface. */
TimedReport
verifyIot(const verify::Policy &policy)
{
    sim::MachineConfig mc;
    mc.sramSize = 160u << 10;
    mc.heapOffset = 96u << 10;
    mc.heapSize = 64u << 10;
    sim::Machine machine(mc);
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation);
    net::addNetCompartments(kernel);
    kernel.createCompartment("tls");
    kernel.createCompartment("mqtt");
    kernel.createCompartment("js");
    kernel.createThread("net", 2, 2048);
    kernel.createThread("js", 1, 2048);
    const auto start = std::chrono::steady_clock::now();
    TimedReport timed;
    timed.report = verify::verifyKernel(kernel, policy);
    timed.report.image = "iot";
    timed.wallMs = msSince(start);
    timed.stats = machine.simStats().snapshot();
    return timed;
}

TimedReport
verifyAlloc(const verify::Policy &policy)
{
    sim::MachineConfig mc;
    mc.sramSize = (256u << 10) + (16u << 10);
    mc.heapOffset = 16u << 10;
    mc.heapSize = 256u << 10;
    sim::Machine machine(mc);
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::SoftwareRevocation);
    kernel.createThread("bench", 1, 2048);
    const auto start = std::chrono::steady_clock::now();
    TimedReport timed;
    timed.report = verify::verifyKernel(kernel, policy);
    timed.report.image = "alloc";
    timed.wallMs = msSince(start);
    timed.stats = machine.simStats().snapshot();
    return timed;
}

TimedReport
verifyStress(const verify::Policy &policy)
{
    sim::MachineConfig mc;
    mc.sramSize = (64u << 10) + (32u << 10);
    mc.heapOffset = 32u << 10;
    mc.heapSize = 64u << 10;
    sim::Machine machine(mc);
    rtos::Kernel kernel(machine);
    kernel.initHeap(alloc::TemporalMode::HardwareRevocation);
    kernel.createCompartment("victim", 1024, 512);
    kernel.createCompartment("attacker", 1024, 512);
    kernel.createThread("victim", 2, 512);
    kernel.createThread("attacker", 1, 512);
    const auto start = std::chrono::steady_clock::now();
    TimedReport timed;
    timed.report = verify::verifyKernel(kernel, policy);
    timed.report.image = "stress";
    timed.wallMs = msSince(start);
    timed.stats = machine.simStats().snapshot();
    return timed;
}

void
describe(const TimedReport &timed, bench::Fields &f)
{
    const verify::Report &r = timed.report;
    std::vector<size_t> counts(6, 0); // Findings per FindingClass.
    for (const auto &finding : r.findings) {
        counts[static_cast<size_t>(finding.cls)] += 1;
    }
    bench::Fields findings;
    for (size_t cls = 0; cls < counts.size(); ++cls) {
        findings.put(verify::findingClassName(
                         static_cast<verify::FindingClass>(cls)),
                     counts[cls]);
    }
    f.put("name", r.image)
        .put("findings", findings)
        .put("findings_total", r.findings.size())
        .put("states_explored", r.statesExplored)
        .put("instructions_analyzed", r.instructionsAnalyzed)
        .put("fixpoint_iterations", r.fixpointIterations)
        .put("call_graph_functions", r.callGraphFunctions)
        .put("call_graph_edges", r.callGraphEdges)
        .put("summaries_computed", r.summariesComputed)
        .put("summary_applications", r.summaryApplications)
        .put("budget_exhausted", r.budgetExhausted)
        .host("wall_ms", timed.wallMs)
        .put("stats", timed.stats);
}

/** Run the corpus; returns 2 on a broken detection contract, else the
 * number of findings (capped at 1). */
int
runCorpus(bool verbose)
{
    bool contractBroken = false;
    size_t findings = 0;
    for (const auto &c : verify::corpus()) {
        const verify::Report report = verify::analyzeProgram(c.image);
        findings += report.findings.size();
        if (c.violating) {
            bool hit = false;
            for (const auto &f : report.findings) {
                if (f.cls == c.expected && f.pc == c.expectedPc) {
                    hit = true;
                }
            }
            std::printf("%-26s %s (%zu finding(s), expect %s @%08x)\n",
                        c.name.c_str(), hit ? "DETECTED" : "MISSED",
                        report.findings.size(),
                        verify::findingClassName(c.expected),
                        c.expectedPc);
            if (!hit) {
                contractBroken = true;
            }
        } else {
            std::printf("%-26s %s (%zu finding(s))\n", c.name.c_str(),
                        report.ok() ? "CLEAN" : "FALSE-POSITIVE",
                        report.findings.size());
            if (!report.ok()) {
                contractBroken = true;
            }
        }
        if (verbose || (c.violating != report.ok() && !report.ok())) {
            for (const auto &f : report.findings) {
                std::printf("%s\n", f.toString().c_str());
            }
        }
    }
    // Manifest-level lint corpus: whole images whose import manifests
    // must (or must not) trip the default policy.
    for (const auto &c : verify::lintCorpus()) {
        const verify::Report report = c.run();
        findings += report.findings.size();
        if (c.violating) {
            bool hit = false;
            for (const auto &f : report.findings) {
                hit |= f.cls == c.expected;
            }
            std::printf("%-26s %s (%zu finding(s), expect %s)\n",
                        c.name.c_str(), hit ? "DETECTED" : "MISSED",
                        report.findings.size(),
                        verify::findingClassName(c.expected));
            if (!hit) {
                contractBroken = true;
            }
        } else {
            std::printf("%-26s %s (%zu finding(s))\n", c.name.c_str(),
                        report.ok() ? "CLEAN" : "FALSE-POSITIVE",
                        report.findings.size());
            if (!report.ok()) {
                contractBroken = true;
            }
        }
        if (verbose) {
            for (const auto &f : report.findings) {
                std::printf("%s\n", f.toString().c_str());
            }
        }
    }
    if (contractBroken) {
        std::fprintf(stderr,
                     "cheriot_verify: corpus detection contract broken\n");
        return 2;
    }
    return findings > 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags("cheriot_verify",
                       "[--workload coremark|iot|alloc|stress|all] "
                       "[--corpus] [--selftest] [--policy FILE] "
                       "[--json FILE] [--graph dot|json] [--verbose]",
                       argc, argv);
    std::string workload = flags.str("--workload");
    const bool corpus = flags.has("--corpus");
    const bool selftest = flags.has("--selftest");
    const bool verbose = flags.has("--verbose");
    const std::string jsonPath = flags.str("--json");
    const std::string graphMode = flags.str("--graph");
    if (!graphMode.empty() && graphMode != "dot" && graphMode != "json") {
        flags.refuse("unknown graph format '" + graphMode + "'");
    }
    const std::string policyPath = flags.str("--policy");
    flags.done();

    verify::Policy policy = verify::Policy::defaultPolicy();
    if (!policyPath.empty()) {
        std::ifstream in(policyPath);
        if (!in) {
            std::fprintf(stderr, "cheriot_verify: cannot read %s\n",
                         policyPath.c_str());
            return 2;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        std::string error;
        const auto parsed =
            verify::Policy::parse(buffer.str(), &error, policyPath);
        if (!parsed) {
            std::fprintf(stderr, "cheriot_verify: bad policy: %s\n",
                         error.c_str());
            return 2;
        }
        policy = *parsed;
    }
    if (selftest) {
        // Corpus contract check: exit 0 iff every seeded violation is
        // detected and every clean twin verifies clean.
        return runCorpus(verbose) == 2 ? 2 : 0;
    }
    if (workload.empty() && !corpus) {
        workload = "all";
    }

    std::vector<TimedReport> reports;
    const bool all = workload == "all";
    if (all || workload == "coremark") {
        reports.push_back(verifyCoreMark(graphMode));
    }
    if (all || workload == "iot") {
        reports.push_back(verifyIot(policy));
    }
    if (all || workload == "alloc") {
        reports.push_back(verifyAlloc(policy));
    }
    if (all || workload == "stress") {
        reports.push_back(verifyStress(policy));
    }
    if (!all && !workload.empty() && reports.empty()) {
        flags.refuse("unknown workload '" + workload + "'");
    }

    int exitCode = 0;
    for (const auto &timed : reports) {
        std::printf("%s", timed.report.toString().c_str());
        if (!timed.report.ok() || timed.report.budgetExhausted) {
            exitCode = 1;
        }
    }

    if (!jsonPath.empty() && !reports.empty()) {
        bench::Report json{"cheriot_verify"};
        for (const auto &timed : reports) {
            json.rows.push_back(bench::Fields::of(timed));
        }
        if (!json.write(jsonPath, exitCode == 0)) {
            return 2;
        }
    }

    if (corpus) {
        const int corpusCode = runCorpus(verbose);
        if (corpusCode == 2) {
            return 2;
        }
        if (corpusCode != 0) {
            exitCode = 1;
        }
    }
    return exitCode;
}
