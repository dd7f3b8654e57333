/**
 * @file
 * Scripted GDB Remote Serial Protocol session against a guest that
 * makes a sentry (compartment-switch) call and then faults a bounds
 * check — the CI gate for the debug stub, with no gdb dependency.
 *
 * The server side is the real transport: GdbSocket::serveFd over one
 * end of a socketpair, on its own thread. The client side is this
 * file, speaking framed RSP: it negotiates qSupported, breaks on the
 * sentry call site, single-steps across the compartment switch
 * (watching the PC land in the callee), continues to the injected
 * capability bounds fault (T05cheriflt stop), inspects the faulting
 * capability register symbolically (tag/base/top/perms), pulls the
 * unified counter registry over qXfer:cheriot-stats, and detaches.
 *
 * After detach the machine finishes the program undebugged, and its
 * whole-state digest must equal a twin run that never had a debugger
 * attached — the observation-only contract, enforced end to end.
 *
 * Emits BENCH_gdb.json: one row with the session's packet count, the
 * digest verdict and the machine's stats. Exit 0 iff every scripted
 * expectation held.
 */

#include "debug/gdb_server.h"
#include "debug/gdb_socket.h"
#include "debug/rsp.h"
#include "flags.h"
#include "isa/assembler.h"
#include "report.h"
#include "sim/machine.h"
#include "util/log.h"

#include <cstdio>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cheriot;
using namespace cheriot::isa;
using cap::Capability;

namespace
{

constexpr uint32_t kEntry = mem::kSramBase + 0x1000;
constexpr uint32_t kDataAddr = mem::kSramBase + 0x4000;
constexpr uint32_t kDataBytes = 16;

/** The bounded data capability lives in a2 = x12 = GDB regnum 12. */
constexpr unsigned kArgRegnum = 12;

int failures = 0;

void
expect(bool ok, const char *what, const std::string &detail = "")
{
    if (ok) {
        return;
    }
    failures++;
    std::fprintf(stderr, "FAIL: %s%s%s\n", what,
                 detail.empty() ? "" : " — ", detail.c_str());
}

/**
 * Guest program (two-pass, like the integration suite): a trap
 * handler that records mcause in tp and skips the faulting
 * instruction; a 16-byte bounded data capability in a2; a sentry
 * call to B (the compartment switch the script steps across); B
 * stores in bounds through a2 and returns; back in A, a store 16
 * bytes past a2's top faults the bounds check; ebreak ends the run.
 */
std::vector<uint32_t>
buildProgram(uint32_t bAddress, uint32_t *bAddressOut,
             uint32_t *callSiteOut, uint32_t *faultSiteOut)
{
    Assembler a(kEntry);
    const auto handler = a.newLabel();
    const auto afterHandler = a.newLabel();
    const auto bodyA = a.newLabel();

    a.j(afterHandler);
    a.bind(handler); // == kEntry + 4
    a.csrrs(T1, kCsrMcause, Zero);
    a.bnez(Tp, handler); // a second fault hangs: the script fails
    a.mv(Tp, T1);
    a.cspecialrw(T2, Scr::Mepcc, Zero);
    a.cincaddrimm(T2, T2, 4);
    a.cspecialrw(Zero, Scr::Mepcc, T2);
    a.mret();
    a.bind(afterHandler);
    a.auipcc(T0, 0);
    a.cincaddrimm(T0, T0,
                  static_cast<int32_t>(kEntry + 4) -
                      static_cast<int32_t>(a.pc()) + 4);
    a.cspecialrw(Zero, Scr::Mtcc, T0);
    a.li(Tp, 0);

    // The bounded view: 16 bytes of SRAM, derived from the memory
    // root the CPU resets with in a0.
    a.li(T0, static_cast<int32_t>(kDataAddr));
    a.csetaddr(A2, A0, T0);
    a.li(T1, static_cast<int32_t>(kDataBytes));
    a.csetbounds(A2, A2, T1);

    // The import: a sentry over B (address from the previous pass).
    a.auipcc(S0, 0);
    a.cincaddrimm(S0, S0,
                  static_cast<int32_t>(bAddress) -
                      static_cast<int32_t>(a.pc()) + 4);
    a.csealentry(S0, S0, 0); // inherit posture
    a.j(bodyA);

    // ---- B (callee) ----------------------------------------------------
    const uint32_t bHere = a.pc();
    a.li(T0, 0x5a);
    a.sw(T0, A2, 0); // in-bounds store through the bounded view
    a.addi(A3, Zero, 42);
    a.ret();

    // ---- A (caller) ----------------------------------------------------
    a.bind(bodyA);
    const uint32_t callSite = a.pc();
    a.jalr(Ra, S0); // compartment switch: the step-across target
    const uint32_t faultSite = a.pc();
    a.sw(T0, A2, kDataBytes); // one word past the top: bounds fault
    a.ebreak();

    *bAddressOut = bHere;
    *callSiteOut = callSite;
    *faultSiteOut = faultSite;
    return a.finish();
}

/** Framed-RSP client over a connected fd (ack mode throughout). */
class RspClient
{
  public:
    explicit RspClient(int fd) : fd_(fd) {}

    std::string exchange(const std::string &payload)
    {
        send(debug::rspFrame(payload));
        for (;;) {
            char buf[4096];
            const ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n <= 0) {
                fatal("gdb_smoke: server closed mid-exchange");
            }
            const auto events = framer_.feed(
                reinterpret_cast<const uint8_t *>(buf),
                static_cast<size_t>(n));
            for (const debug::RspEvent &event : events) {
                if (event.kind == debug::RspEvent::Kind::Packet) {
                    send("+");
                    return event.payload;
                }
            }
        }
    }

  private:
    void send(const std::string &bytes)
    {
        size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::write(fd_, bytes.data() + sent,
                                      bytes.size() - sent);
            if (n <= 0) {
                fatal("gdb_smoke: short write to server");
            }
            sent += static_cast<size_t>(n);
        }
    }

    int fd_;
    debug::RspFramer framer_;
};

/** Decode a little-endian hex register image. */
uint64_t
decodeLe(const std::string &hex)
{
    std::vector<uint8_t> raw;
    if (!debug::parseHexBytes(hex, &raw) || raw.empty() ||
        raw.size() > 8) {
        return ~uint64_t{0};
    }
    uint64_t value = 0;
    for (size_t i = 0; i < raw.size(); ++i) {
        value |= static_cast<uint64_t>(raw[i]) << (8 * i);
    }
    return value;
}

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

sim::MachineConfig
machineConfig()
{
    sim::MachineConfig config;
    config.core = sim::CoreConfig::ibex();
    config.sramSize = 128u << 10;
    config.heapOffset = 64u << 10;
    config.heapSize = 32u << 10;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags("gdb_smoke", "[--out FILE]", argc, argv);
    const std::string outPath = flags.str("--out", "BENCH_gdb.json");
    flags.done();

    // Two-pass assembly: learn B's address, then place the sentry.
    uint32_t bAddress = kEntry;
    uint32_t callSite = 0;
    uint32_t faultSite = 0;
    (void)buildProgram(kEntry, &bAddress, &callSite, &faultSite);
    uint32_t verify = 0;
    const auto program =
        buildProgram(bAddress, &verify, &callSite, &faultSite);
    expect(verify == bAddress, "two-pass layout stable");

    // The debugged machine and its stub.
    sim::Machine machine(machineConfig());
    machine.loadProgram(program, kEntry);
    machine.resetCpu(kEntry);

    debug::GdbServer server(machine);
    server.setResumeBudget(1u << 16);
    debug::GdbSocket socket(server);

    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        fatal("gdb_smoke: socketpair failed");
    }
    uint64_t packets = 0;
    std::thread serverThread(
        [&] { packets = socket.serveFd(fds[0]); });

    {
        RspClient gdb(fds[1]);
        char buf[64];

        const std::string supported =
            gdb.exchange("qSupported:multiprocess+;swbreak+");
        expect(contains(supported, "qXfer:cheriot-stats:read+"),
               "qSupported advertises the stats object", supported);

        expect(gdb.exchange("?") == "S05", "initial stop reply");

        // Break on the sentry call site and run to it.
        std::snprintf(buf, sizeof(buf), "Z0,%x,4", callSite);
        expect(gdb.exchange(buf) == "OK", "set sw breakpoint");
        std::string stop = gdb.exchange("c");
        expect(contains(stop, "T05") && contains(stop, "swbreak"),
               "continue hits the call-site breakpoint", stop);
        std::string pcc = gdb.exchange("p10"); // regnum 16 = pcc
        expect(static_cast<uint32_t>(decodeLe(pcc)) == callSite,
               "stopped PC is the call site", pcc);

        // Single-step across the compartment switch: the sentry
        // unseals and the PC lands on B's first instruction.
        stop = gdb.exchange("s");
        expect(contains(stop, "T05"), "single-step stop reply", stop);
        pcc = gdb.exchange("p10");
        expect(static_cast<uint32_t>(decodeLe(pcc)) == bAddress,
               "step landed in the callee compartment", pcc);
        const std::string pccView = gdb.exchange("qCheriot.reg:10");
        expect(contains(pccView, "pcc") &&
                   contains(pccView, "tag=1"),
               "pcc symbolic view", pccView);

        // Drop the breakpoint and continue into the bounds fault.
        std::snprintf(buf, sizeof(buf), "z0,%x,4", callSite);
        expect(gdb.exchange(buf) == "OK", "clear sw breakpoint");
        stop = gdb.exchange("c");
        std::snprintf(buf, sizeof(buf), "T05cheriflt:%x;",
                      static_cast<unsigned>(
                          sim::TrapCause::CheriBoundsViolation));
        expect(contains(stop, buf),
               "continue stops on the capability bounds fault", stop);
        std::snprintf(buf, sizeof(buf), "cheritval:%x;",
                      kDataAddr + kDataBytes);
        expect(contains(stop, buf),
               "stop reply carries the out-of-bounds address", stop);

        // The faulting capability register, raw and symbolic. The
        // store's offset rode the immediate, so the register still
        // addresses its base; the access address is the cheritval.
        std::snprintf(buf, sizeof(buf), "p%x", kArgRegnum);
        const std::string rawArg = gdb.exchange(buf);
        expect(static_cast<uint32_t>(decodeLe(rawArg)) == kDataAddr,
               "faulting cap register image decodes", rawArg);
        std::snprintf(buf, sizeof(buf), "qCheriot.reg:%x",
                      kArgRegnum);
        const std::string argView = gdb.exchange(buf);
        std::snprintf(buf, sizeof(buf), "base=0x%08x", kDataAddr);
        expect(contains(argView, "tag=1") && contains(argView, buf),
               "faulting cap symbolic view (tag, base)", argView);
        std::snprintf(buf, sizeof(buf), "top=0x%09x",
                      kDataAddr + kDataBytes);
        expect(contains(argView, buf) && contains(argView, "perms="),
               "faulting cap symbolic view (top, perms)", argView);

        const std::string fault = gdb.exchange("qCheriot.fault");
        expect(contains(fault, "reason=") &&
                   contains(fault, "cause="),
               "qCheriot.fault names the trap cause", fault);
        std::snprintf(buf, sizeof(buf), ";pc=0x%08x", faultSite);
        expect(contains(fault, buf),
               "qCheriot.fault pins the faulting instruction", fault);

        // B's in-bounds store is visible through the debug read path.
        std::snprintf(buf, sizeof(buf), "m%x,4", kDataAddr);
        expect(gdb.exchange(buf) == "5a000000",
               "memory read sees the callee's store");

        // The unified counter registry over qXfer.
        const std::string stats =
            gdb.exchange("qXfer:cheriot-stats:read::0,4000");
        expect(!stats.empty() &&
                   (stats[0] == 'l' || stats[0] == 'm') &&
                   contains(stats, "machine.instructions"),
               "qXfer:cheriot-stats serves the registry", stats);

        expect(gdb.exchange("D") == "OK", "detach");
    }
    serverThread.join();
    ::close(fds[0]);
    ::close(fds[1]);
    expect(server.detached(), "server saw the detach");

    // Finish the program undebugged: the handler skips the faulting
    // store and the guest ebreaks.
    const auto debuggedResult = machine.run(1u << 16);
    expect(debuggedResult.reason == sim::HaltReason::Breakpoint,
           "debugged run completes after detach");
    expect(machine.readRegInt(Tp) ==
               static_cast<uint32_t>(
                   sim::TrapCause::CheriBoundsViolation),
           "guest handler recorded the bounds fault");

    // The twin that never had a debugger: bit-identical machine.
    sim::Machine twin(machineConfig());
    twin.loadProgram(program, kEntry);
    twin.resetCpu(kEntry);
    const auto twinResult = twin.run(1u << 16);
    expect(twinResult.reason == sim::HaltReason::Breakpoint,
           "twin run completes");
    const uint32_t debuggedDigest = machine.stateDigest();
    const uint32_t twinDigest = twin.stateDigest();
    expect(debuggedDigest == twinDigest,
           "detached machine is bit-identical to the undebugged twin");

    const bool ok = failures == 0;
    std::printf("gdb_smoke: %llu packets, digest %08x vs twin %08x "
                "— %s\n",
                static_cast<unsigned long long>(packets),
                debuggedDigest, twinDigest, ok ? "OK" : "FAILED");

    bench::Report report{"gdb_smoke"};
    report.rows.emplace_back()
        .put("packets", packets)
        .put("digest_match", debuggedDigest == twinDigest)
        .put("stats", machine.simStats().snapshot());
    if (!report.write(outPath, ok)) {
        return 2;
    }
    std::printf("wrote %s\n", outPath.c_str());
    return ok ? 0 : 1;
}
