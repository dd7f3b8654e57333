#include "verify/verifier.h"

#include "cap/capability.h"
#include "isa/semantics.h"
#include "rtos/audit.h"
#include "rtos/kernel.h"
#include "sim/csr.h"

#include <cstdio>
#include <deque>
#include <map>
#include <set>

namespace cheriot::verify
{

namespace
{

using cap::Capability;
using isa::Inst;
using isa::Op;

/** The registers a caller must clear before a sentry jump so no
 * capability leaks into the callee compartment: everything that is
 * neither an argument register (a0–a5), the stack (chopped by the
 * switcher), nor the link/target of the jump itself. */
constexpr uint8_t kMustClearAtCall[] = {isa::Gp, isa::Tp, isa::T0,
                                        isa::T1, isa::T2, isa::S0,
                                        isa::S1};

/** A link register's abstract value: a tagged, global return sentry
 * (the otype depends on the untracked interrupt posture, so the value
 * is Unknown rather than Exact). */
AbstractCap
linkValue()
{
    return AbstractCap::unknown(Tri::Yes, Tri::No, Tri::Yes);
}

struct Interp;

/**
 * One fixpoint over one verification root. Every root gets its own
 * state map: sentry roots run under a worst-case (all-Unknown) entry
 * state, and sharing a map with the main root would join that
 * pessimism into the precise entry states and mask real findings.
 * Findings, budget, summaries and the call graph live in the shared
 * Interp so facts are deduplicated across roots.
 *
 * In summary mode the same transfer functions run over a Param entry
 * state (regs[i] = Param(i)); findings still fire (a definite fact
 * derived under the fully abstract entry holds for every concrete
 * call), and every escaping path is classified: a definite return
 * through Param(ra) contributes to the summary out-state, a definite
 * trap ends the path, and anything else poisons the summary back to
 * the conservative havoc.
 */
struct Analyzer
{
    Interp &interp;
    const uint32_t rootEntry;
    const bool summaryMode;

    std::map<uint32_t, AbstractState> states;
    std::deque<uint32_t> worklist;

    /** Join of the register file over all definite return points
     * (summary mode only). */
    AbstractState returnOut;
    bool sawReturn = false;
    /** An escape the analysis cannot classify as return-or-trap was
     * reached: the summary degrades to havoc. */
    bool poisoned = false;

    Analyzer(Interp &owner, uint32_t root, bool summary)
        : interp(owner), rootEntry(root), summaryMode(summary)
    {}

    bool inImage(uint32_t pc) const;
    uint32_t wordAt(uint32_t pc) const;
    void finding(FindingClass cls, uint32_t pc,
                 const std::string &message, const AbstractState &st);

    /** Join @p st into the stored state at @p pc and (re)enqueue on
     * change. Targets outside the image end the path (and poison a
     * summary: leaving the image is an unclassifiable escape). */
    void post(uint32_t pc, const AbstractState &st);

    /** Post-call continuation fallback: a callee may clobber every
     * register (arguments, temporaries, even callee-saves — the
     * analyzer makes no calling-convention assumptions), so all 15
     * registers havoc. Only PCC survives. */
    static AbstractState havocked(const AbstractState &st)
    {
        AbstractState out;
        out.pcc = st.pcc;
        for (unsigned i = 1; i < isa::kNumRegs; ++i) {
            out.regs[i] = AbstractCap::unknown();
        }
        return out;
    }

    void checkCallSiteClears(uint32_t pc, const AbstractState &st,
                             uint8_t targetReg, uint8_t linkReg)
    {
        for (uint8_t r : kMustClearAtCall) {
            if (r == targetReg || r == linkReg) {
                continue;
            }
            if (st.reg(r).definitelyTagged()) {
                finding(FindingClass::SwitcherAbi, pc,
                        std::string("capability register ") +
                            isa::regName(r) +
                            " live across a sentry call: callee can "
                            "capture the caller's authority",
                        st);
            }
        }
    }

    /** Refine the continuation of a call to @p target using the
     * callee's summary (havoc when no usable summary exists). */
    void applyCall(uint32_t target, const AbstractState &st,
                   uint8_t linkReg, uint32_t nextPc);

    bool memAccessFaults(uint32_t pc, const AbstractState &st,
                         const AbstractCap &auth, int32_t imm,
                         unsigned bytes, bool isStore, bool capStore,
                         const AbstractCap &stored);

    void step(uint32_t pc, AbstractState st);

    void run(const AbstractState &entryState);
};

/** Shared interprocedural context: report, budget, finding dedup,
 * memoized function summaries, discovered verification roots, and the
 * call graph under recovery. */
struct Interp
{
    const ProgramImage &image;
    const AnalyzerOptions &options;
    Report report;
    CallGraph graph;

    std::set<std::string> dedup;
    std::set<uint32_t> visited;
    std::map<uint32_t, FunctionSummary> summaries;
    std::set<uint32_t> inProgress;
    std::deque<uint32_t> pendingRoots;
    std::set<uint32_t> knownRoots;

    Interp(const ProgramImage &img, const AnalyzerOptions &opts)
        : image(img), options(opts)
    {
        report.image = img.name;
    }

    bool inImage(uint32_t pc) const
    {
        return pc >= image.base && (pc & 3) == 0 &&
               (pc - image.base) / 4 < image.words.size();
    }

    uint32_t wordAt(uint32_t pc) const
    {
        return image.words[(pc - image.base) / 4];
    }

    void finding(FindingClass cls, uint32_t pc,
                 const std::string &message, const AbstractState &st)
    {
        char key[32];
        std::snprintf(key, sizeof(key), "%u@%08x:",
                      static_cast<unsigned>(cls), pc);
        if (!dedup.insert(key + message).second) {
            return;
        }
        Finding f;
        f.cls = cls;
        f.compartment = image.name;
        f.pc = pc;
        f.message = message;
        f.latticeState = st.toString();
        report.findings.push_back(std::move(f));
    }

    /** Register an analysis-discovered sentry entry as a verification
     * root (analyzed later under a worst-case entry state). */
    void addRoot(uint32_t entry)
    {
        if (!inImage(entry)) {
            return;
        }
        if (knownRoots.insert(entry).second) {
            pendingRoots.push_back(entry);
        }
    }

    /** Memoized per-entry summary. Recursive requests (an entry whose
     * summary is still being computed) fall back to havoc, which is
     * always sound. */
    const FunctionSummary &summaryFor(uint32_t entry)
    {
        static const FunctionSummary kHavoc{};
        if (!inImage(entry)) {
            return kHavoc;
        }
        auto it = summaries.find(entry);
        if (it != summaries.end()) {
            return it->second;
        }
        if (!inProgress.insert(entry).second) {
            return kHavoc;
        }
        Analyzer analyzer(*this, entry, /*summary=*/true);
        AbstractState init;
        for (unsigned i = 1; i < isa::kNumRegs; ++i) {
            init.regs[i] = AbstractCap::param(static_cast<uint8_t>(i));
        }
        init.pcc = AbstractCap::exact(
            Capability::executableRoot().withAddress(entry));
        analyzer.run(init);
        FunctionSummary summary;
        if (analyzer.poisoned || report.budgetExhausted) {
            summary.kind = FunctionSummary::Kind::Havoc;
        } else if (!analyzer.sawReturn) {
            summary.kind = FunctionSummary::Kind::NoReturn;
        } else {
            summary.kind = FunctionSummary::Kind::Returns;
            summary.out = analyzer.returnOut;
        }
        inProgress.erase(entry);
        ++report.summariesComputed;
        return summaries.emplace(entry, summary).first->second;
    }

    Report run()
    {
        graph = CallGraph::recover(image);
        graph.addNode(image.entry, /*root=*/true, false);
        knownRoots.insert(image.entry);

        // Main root: the §3.1.1 reset state.
        {
            Analyzer analyzer(*this, image.entry, /*summary=*/false);
            AbstractState init;
            init.write(isa::A0,
                       AbstractCap::exact(Capability::memoryRoot()));
            init.write(isa::A1,
                       AbstractCap::exact(Capability::sealingRoot()));
            init.pcc = AbstractCap::exact(
                Capability::executableRoot().withAddress(image.entry));
            analyzer.run(init);
        }

        // Discovered sentry entries: in-image sentry calls execute
        // without the switcher, so the callee sees whatever the
        // caller left in the registers — the sound entry state is
        // all-Unknown, not all-zero.
        while (!pendingRoots.empty() && !report.budgetExhausted) {
            const uint32_t root = pendingRoots.front();
            pendingRoots.pop_front();
            graph.addNode(root, /*root=*/true, false);
            Analyzer analyzer(*this, root, /*summary=*/false);
            AbstractState init;
            for (unsigned i = 1; i < isa::kNumRegs; ++i) {
                init.regs[i] = AbstractCap::unknown();
            }
            init.pcc = AbstractCap::exact(
                Capability::executableRoot().withAddress(root));
            analyzer.run(init);
        }

        report.instructionsAnalyzed = visited.size();
        report.callGraphFunctions = graph.nodeCount();
        report.callGraphEdges = graph.edgeCount();
        return std::move(report);
    }
};

bool
Analyzer::inImage(uint32_t pc) const
{
    return interp.inImage(pc);
}

uint32_t
Analyzer::wordAt(uint32_t pc) const
{
    return interp.wordAt(pc);
}

void
Analyzer::finding(FindingClass cls, uint32_t pc,
                  const std::string &message, const AbstractState &st)
{
    interp.finding(cls, pc, message, st);
}

void
Analyzer::post(uint32_t pc, const AbstractState &st)
{
    if (!inImage(pc)) {
        if (summaryMode) {
            poisoned = true;
        }
        return;
    }
    if (interp.report.statesExplored >= interp.options.maxStateUpdates) {
        interp.report.budgetExhausted = true;
        if (summaryMode) {
            poisoned = true;
        }
        return;
    }
    auto it = states.find(pc);
    if (it == states.end()) {
        states.emplace(pc, st);
    } else {
        AbstractState joined = it->second.join(st);
        if (joined == it->second) {
            return;
        }
        it->second = joined;
    }
    ++interp.report.statesExplored;
    worklist.push_back(pc);
}

void
Analyzer::applyCall(uint32_t target, const AbstractState &st,
                    uint8_t linkReg, uint32_t nextPc)
{
    const FunctionSummary &summary = interp.summaryFor(target);
    switch (summary.kind) {
      case FunctionSummary::Kind::Havoc:
        post(nextPc, havocked(st));
        return;
      case FunctionSummary::Kind::NoReturn:
        // Every path through the callee definitely traps: the
        // continuation is unreachable.
        return;
      case FunctionSummary::Kind::Returns: {
        ++interp.report.summaryApplications;
        // Param out-values name the callee's entry registers, i.e.
        // the caller's state *after* the link write.
        AbstractState atEntry = st;
        atEntry.write(linkReg, linkValue());
        AbstractState cont;
        cont.pcc = st.pcc;
        for (unsigned i = 1; i < isa::kNumRegs; ++i) {
            const AbstractCap &out = summary.out.regs[i];
            cont.regs[i] =
                out.isParam() ? atEntry.regs[out.paramIndex] : out;
        }
        post(nextPc, cont);
        return;
      }
    }
}

/**
 * Model the checked-memory-access rules of Machine::checkAccess /
 * storeCap. Returns true when the access *definitely* traps (the
 * finding is recorded and the path ends). @p stored is the value
 * operand for capability stores (Csc), else ignored.
 */
bool
Analyzer::memAccessFaults(uint32_t pc, const AbstractState &st,
                          const AbstractCap &auth, int32_t imm,
                          unsigned bytes, bool isStore, bool capStore,
                          const AbstractCap &stored)
{
    const char *what = isStore ? "store" : "load";
    if (auth.definitelyUntagged()) {
        finding(FindingClass::Monotonicity, pc,
                std::string(what) +
                    " through untagged capability (authority was "
                    "destroyed by a non-monotone manipulation)",
                st);
        return true;
    }
    if (auth.definitelySealed()) {
        finding(FindingClass::Sealing, pc,
                std::string(what) + " through sealed capability", st);
        return true;
    }
    if (!auth.isExact()) {
        return false; // No definite fact: assume the access is fine.
    }
    const Capability &c = auth.value; // Tagged and unsealed here.
    const uint16_t need = isStore ? cap::PermStore : cap::PermLoad;
    if (!c.perms().has(need)) {
        finding(FindingClass::Monotonicity, pc,
                std::string(what) + " authority lacks " +
                    (isStore ? "SD" : "LD") + " permission",
                st);
        return true;
    }
    const uint32_t addr = c.address() + imm;
    if (!c.inBounds(addr, bytes)) {
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "out-of-bounds %s: [%08x,+%u) outside "
                      "[%08x,%08x)",
                      what, addr, bytes, c.base(),
                      static_cast<uint32_t>(c.top()));
        finding(FindingClass::Monotonicity, pc, msg, st);
        return true;
    }
    if ((addr & (bytes - 1)) != 0) {
        finding(FindingClass::Monotonicity, pc,
                std::string("misaligned ") + what, st);
        return true;
    }
    if (capStore && isStore && stored.definitelyTagged()) {
        if (!c.perms().has(cap::PermMemCap)) {
            finding(FindingClass::Monotonicity, pc,
                    "capability store through data-only (no MC) "
                    "authority",
                    st);
            return true;
        }
        if (stored.definitelyLocal() &&
            !c.perms().has(cap::PermStoreLocal)) {
            finding(FindingClass::StackLeak, pc,
                    "local (stack-derived) capability stored "
                    "through authority without Store-Local: the "
                    "§5.2 stack-capability leak",
                    st);
            return true;
        }
    }
    return false;
}

void
Analyzer::run(const AbstractState &entryState)
{
    post(rootEntry, entryState);
    while (!worklist.empty() && !interp.report.budgetExhausted) {
        const uint32_t pc = worklist.front();
        worklist.pop_front();
        ++interp.report.fixpointIterations;
        interp.visited.insert(pc);
        step(pc, states.at(pc));
    }
}

void
Analyzer::step(uint32_t pc, AbstractState st)
{
    const Inst inst = isa::decode(wordAt(pc));
    const uint32_t nextPc = pc + 4;
    const AbstractCap aRs1 = st.reg(inst.rs1);
    const AbstractCap aRs2 = st.reg(inst.rs2);
    const bool exact1 = aRs1.isExact();
    const bool exact12 = exact1 && aRs2.isExact();
    const uint32_t v1 = exact1 ? aRs1.address() : 0;
    const uint32_t v2 = aRs2.isExact() ? aRs2.address() : 0;

    auto intResult = [&](bool known, uint32_t value) {
        st.write(inst.rd, known ? AbstractCap::integer(value)
                                : AbstractCap::unknownInt());
    };
    auto goNext = [&]() { post(nextPc, st); };

    /** Attribute pass-through for address-only edits (CSetAddr /
     * CIncAddr): tag may clear, GL and otype are untouched. */
    auto addressEdit = [&]() {
        return AbstractCap::unknown(aRs1.definitelyUntagged()
                                        ? Tri::No
                                        : Tri::Maybe,
                                    aRs1.local(), aRs1.sealed());
    };

    switch (inst.op) {
      case Op::Illegal:
        return; // Illegal-instruction trap: the path ends.

      case Op::Lui:
        intResult(true, static_cast<uint32_t>(inst.imm));
        goNext();
        return;

      case Op::Auipc:
        if (st.pcc.isExact()) {
            st.write(inst.rd, AbstractCap::exact(
                                  st.pcc.value.withAddress(pc + inst.imm)));
        } else {
            st.write(inst.rd, AbstractCap::unknown());
        }
        goNext();
        return;

      case Op::Jal: {
        const uint32_t target = pc + inst.imm;
        if (inst.rd != 0) {
            // A call: analyze the callee inline with the precise
            // call-site state (and a sealed link value), and refine
            // the continuation through the callee's summary.
            interp.graph.addEdge(
                {pc, target, /*viaSentry=*/false, /*direct=*/true});
            AbstractState callee = st;
            callee.write(inst.rd, linkValue());
            post(target, callee);
            applyCall(target, st, inst.rd, nextPc);
        } else {
            post(target, st);
        }
        return;
      }

      case Op::Jalr: {
        if (aRs1.definitelyUntagged()) {
            finding(FindingClass::Monotonicity, pc,
                    "jump through untagged capability", st);
            return;
        }
        if (aRs1.isExact()) {
            const Capability c = aRs1.value; // Tagged here.
            if (c.isForwardSentry()) {
                if (inst.imm != 0) {
                    finding(FindingClass::Sealing, pc,
                            "sentry jump with non-zero offset (sealed "
                            "entry addresses are immutable)",
                            st);
                    return;
                }
                // A cross-compartment call site: the switcher ABI
                // requires every non-argument capability register to
                // be dead here.
                checkCallSiteClears(pc, st, inst.rs1, inst.rd);
                const uint32_t dest = c.address() & ~1u;
                interp.graph.addEdge(
                    {pc, dest, /*viaSentry=*/true, /*direct=*/false});
                // The callee becomes its own verification root,
                // analyzed under a worst-case entry state.
                interp.addRoot(dest);
                if (inst.rd != 0) {
                    applyCall(dest, st, inst.rd, nextPc);
                } else if (summaryMode) {
                    // Tail sentry call: the callee returns to *our*
                    // caller with a register file this summary cannot
                    // describe.
                    poisoned = true;
                }
                return;
            }
            if (c.isReturnSentry()) {
                if (inst.imm != 0) {
                    finding(FindingClass::Sealing, pc,
                            "return-sentry jump with non-zero offset",
                            st);
                }
                if (summaryMode) {
                    // An exact return sentry cannot be the entry link
                    // value (that is Param(ra)): unknown continuation.
                    poisoned = true;
                }
                return; // Return: the path leaves this activation.
            }
            if (c.isSealed()) {
                finding(FindingClass::Sealing, pc,
                        "jump through sealed non-sentry capability "
                        "(otype grants no invocation right)",
                        st);
                return;
            }
            if (!c.perms().has(cap::PermExecute)) {
                finding(FindingClass::Monotonicity, pc,
                        "jump through non-executable capability", st);
                return;
            }
            const uint32_t dest = (c.address() + inst.imm) & ~1u;
            if (inst.rd != 0) {
                interp.graph.addEdge(
                    {pc, dest, /*viaSentry=*/false, /*direct=*/false});
                AbstractState callee = st;
                callee.write(inst.rd, linkValue());
                post(dest, callee);
                applyCall(dest, st, inst.rd, nextPc);
            } else {
                post(dest, st);
            }
            return;
        }
        // Non-exact target.
        if (inst.rd == 0) {
            if (summaryMode) {
                if (aRs1.isParamOf(isa::Ra) && inst.imm == 0) {
                    // A definite return: the jump target is exactly
                    // the caller-provided return sentry.
                    returnOut = sawReturn ? returnOut.join(st) : st;
                    sawReturn = true;
                } else {
                    poisoned = true;
                }
            }
            // Finding pass: typically a return through a havocked
            // link register — the jump leaves the analyzed region.
            return;
        }
        // A call-shaped jump through an unknown target still has a
        // post-return continuation (with no usable summary).
        post(nextPc, havocked(st));
        return;
      }

      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
      case Op::Bltu: case Op::Bgeu: {
        const uint32_t target = pc + inst.imm;
        if (exact12) {
            // Both operands known: fold the branch so dead arms do not
            // pollute the fixpoint (and cannot cause false positives).
            post(isa::branchTaken(inst.op, v1, v2) ? target : nextPc, st);
        } else {
            post(target, st);
            post(nextPc, st);
        }
        return;
      }

      case Op::Lb: case Op::Lh: case Op::Lw: case Op::Lbu: case Op::Lhu: {
        const unsigned bytes =
            (inst.op == Op::Lb || inst.op == Op::Lbu) ? 1
            : (inst.op == Op::Lh || inst.op == Op::Lhu) ? 2 : 4;
        if (memAccessFaults(pc, st, aRs1, inst.imm, bytes, false, false,
                            AbstractCap())) {
            return;
        }
        intResult(false, 0); // Memory contents are not modelled.
        goNext();
        return;
      }

      case Op::Sb: case Op::Sh: case Op::Sw: {
        const unsigned bytes = inst.op == Op::Sb ? 1
                               : inst.op == Op::Sh ? 2 : 4;
        if (memAccessFaults(pc, st, aRs1, inst.imm, bytes, true, false,
                            AbstractCap())) {
            return;
        }
        goNext();
        return;
      }

      case Op::Clc: {
        if (memAccessFaults(pc, st, aRs1, inst.imm, 8, false, false,
                            AbstractCap())) {
            return;
        }
        // The loaded value is unknown, but the authority's load-side
        // attenuation (§3.1.1) gives definite attribute facts: no MC
        // means the value arrives untagged; no LG means it arrives
        // local.
        Tri tagged = Tri::Maybe;
        Tri local = Tri::Maybe;
        if (exact1) {
            if (!aRs1.value.perms().has(cap::PermMemCap)) {
                tagged = Tri::No;
            }
            if (!aRs1.value.perms().has(cap::PermLoadGlobal)) {
                local = Tri::Yes;
            }
        }
        st.write(inst.rd, AbstractCap::unknown(tagged, local, Tri::Maybe));
        goNext();
        return;
      }

      case Op::Csc: {
        if (memAccessFaults(pc, st, aRs1, inst.imm, 8, true, true,
                            aRs2)) {
            return;
        }
        goNext();
        return;
      }

      case Op::Addi: intResult(exact1, v1 + inst.imm); goNext(); return;
      case Op::Slti:
        intResult(exact1, isa::slt(v1, inst.imm));
        goNext();
        return;
      case Op::Sltiu:
        intResult(exact1, isa::sltu(v1, inst.imm));
        goNext();
        return;
      case Op::Xori: intResult(exact1, v1 ^ inst.imm); goNext(); return;
      case Op::Ori: intResult(exact1, v1 | inst.imm); goNext(); return;
      case Op::Andi: intResult(exact1, v1 & inst.imm); goNext(); return;
      case Op::Slli:
        intResult(exact1, isa::sll(v1, inst.imm));
        goNext();
        return;
      case Op::Srli:
        intResult(exact1, isa::srl(v1, inst.imm));
        goNext();
        return;
      case Op::Srai:
        intResult(exact1, isa::sra(v1, inst.imm));
        goNext();
        return;
      case Op::Add: intResult(exact12, v1 + v2); goNext(); return;
      case Op::Sub: intResult(exact12, v1 - v2); goNext(); return;
      case Op::Sll: intResult(exact12, isa::sll(v1, v2)); goNext(); return;
      case Op::Slt: intResult(exact12, isa::slt(v1, v2)); goNext(); return;
      case Op::Sltu: intResult(exact12, isa::sltu(v1, v2)); goNext(); return;
      case Op::Xor: intResult(exact12, v1 ^ v2); goNext(); return;
      case Op::Srl: intResult(exact12, isa::srl(v1, v2)); goNext(); return;
      case Op::Sra: intResult(exact12, isa::sra(v1, v2)); goNext(); return;
      case Op::Or: intResult(exact12, v1 | v2); goNext(); return;
      case Op::And: intResult(exact12, v1 & v2); goNext(); return;

      case Op::Mul: intResult(exact12, v1 * v2); goNext(); return;
      case Op::Mulh: intResult(exact12, isa::mulh(v1, v2)); goNext(); return;
      case Op::Mulhsu:
        intResult(exact12, isa::mulhsu(v1, v2));
        goNext();
        return;
      case Op::Mulhu: intResult(exact12, isa::mulhu(v1, v2)); goNext(); return;
      case Op::Div: intResult(exact12, isa::div(v1, v2)); goNext(); return;
      case Op::Divu: intResult(exact12, isa::divu(v1, v2)); goNext(); return;
      case Op::Rem: intResult(exact12, isa::rem(v1, v2)); goNext(); return;
      case Op::Remu: intResult(exact12, isa::remu(v1, v2)); goNext(); return;

      case Op::Ecall:
      case Op::Ebreak:
        return; // Trap / halt: the path ends (a definite non-return).
      case Op::Mret:
        if (st.pcc.isExact() &&
            !st.pcc.value.perms().has(cap::PermSystemRegs)) {
            finding(FindingClass::Monotonicity, pc,
                    "mret without SystemRegs permission on PCC", st);
        }
        if (summaryMode) {
            poisoned = true; // Resumes at MEPCC, which is not tracked.
        }
        return;

      case Op::Csrrw: case Op::Csrrs: case Op::Csrrc:
      case Op::Csrrwi: case Op::Csrrsi: case Op::Csrrci:
        if (st.pcc.isExact() &&
            sim::CsrFile::requiresSystemRegs(inst.csr) &&
            !st.pcc.value.perms().has(cap::PermSystemRegs)) {
            finding(FindingClass::Monotonicity, pc,
                    "privileged CSR access without SystemRegs "
                    "permission on PCC",
                    st);
            return;
        }
        intResult(false, 0);
        goNext();
        return;

      case Op::CGetPerm:
        intResult(exact1, exact1 ? aRs1.value.perms().mask() : 0);
        goNext();
        return;
      case Op::CGetType:
        intResult(exact1, exact1 ? aRs1.value.typeAddress() : 0);
        goNext();
        return;
      case Op::CGetBase:
        intResult(exact1, exact1 ? aRs1.value.base() : 0);
        goNext();
        return;
      case Op::CGetLen: {
        const uint64_t length = exact1 ? aRs1.value.length() : 0;
        intResult(exact1, length > 0xffffffffull
                              ? 0xffffffffu
                              : static_cast<uint32_t>(length));
        goNext();
        return;
      }
      case Op::CGetTop: {
        const uint64_t top = exact1 ? aRs1.value.top() : 0;
        intResult(exact1, top > 0xffffffffull
                              ? 0xffffffffu
                              : static_cast<uint32_t>(top));
        goNext();
        return;
      }
      case Op::CGetTag:
        if (aRs1.tagged() != Tri::Maybe) {
            intResult(true, aRs1.tagged() == Tri::Yes ? 1 : 0);
        } else {
            intResult(false, 0);
        }
        goNext();
        return;
      case Op::CGetAddr: intResult(exact1, v1); goNext(); return;

      case Op::CSeal: {
        if (exact12) {
            const auto sealed = cap::seal(aRs1.value, aRs2.value);
            if (!sealed && aRs1.value.tag() && aRs2.value.tag()) {
                finding(FindingClass::Sealing, pc,
                        "seal with authority whose otype/permission "
                        "does not cover the target",
                        st);
            }
            st.write(inst.rd,
                     AbstractCap::exact(sealed
                                            ? *sealed
                                            : aRs1.value.withTagCleared()));
        } else {
            st.write(inst.rd, AbstractCap::unknown(
                                  Tri::Maybe, aRs1.local(), Tri::Maybe));
        }
        goNext();
        return;
      }
      case Op::CUnseal: {
        if (exact12) {
            const auto unsealed = cap::unseal(aRs1.value, aRs2.value);
            if (!unsealed && aRs1.value.tag() && aRs2.value.tag()) {
                finding(FindingClass::Sealing, pc,
                        "unseal with authority whose otype/permission "
                        "does not match the target's seal",
                        st);
            }
            st.write(inst.rd,
                     AbstractCap::exact(
                         unsealed ? *unsealed
                                  : aRs1.value.withTagCleared()));
        } else {
            st.write(inst.rd, AbstractCap::unknown(
                                  Tri::Maybe, aRs1.local(), Tri::Maybe));
        }
        goNext();
        return;
      }
      case Op::CAndPerm:
        if (exact12) {
            st.write(inst.rd,
                     AbstractCap::exact(aRs1.value.withPermsAnd(
                         static_cast<uint16_t>(v2))));
        } else {
            // Permissions only shed: a definitely-local input stays
            // local.
            st.write(inst.rd,
                     AbstractCap::unknown(
                         aRs1.definitelyUntagged() ? Tri::No : Tri::Maybe,
                         aRs1.local() == Tri::Yes ? Tri::Yes : Tri::Maybe,
                         aRs1.sealed()));
        }
        goNext();
        return;
      case Op::CSetAddr:
        if (exact12) {
            st.write(inst.rd,
                     AbstractCap::exact(aRs1.value.withAddress(v2)));
        } else {
            st.write(inst.rd, addressEdit());
        }
        goNext();
        return;
      case Op::CIncAddr:
        if (exact12) {
            st.write(inst.rd, AbstractCap::exact(
                                  aRs1.value.withAddressOffset(v2)));
        } else {
            st.write(inst.rd, addressEdit());
        }
        goNext();
        return;
      case Op::CIncAddrImm:
        if (exact1) {
            st.write(inst.rd, AbstractCap::exact(
                                  aRs1.value.withAddressOffset(inst.imm)));
        } else {
            st.write(inst.rd, addressEdit());
        }
        goNext();
        return;

      case Op::CSetBounds:
      case Op::CSetBoundsExact:
      case Op::CSetBoundsImm: {
        const bool immForm = inst.op == Op::CSetBoundsImm;
        const bool lengthKnown = immForm || aRs2.isExact();
        const uint64_t length =
            immForm ? static_cast<uint32_t>(inst.imm) : v2;
        if (exact1 && lengthKnown && aRs1.value.tag() &&
            !aRs1.value.isSealed()) {
            const uint64_t reqBase = aRs1.value.address();
            const uint64_t reqTop = reqBase + length;
            if (reqBase < aRs1.value.base() ||
                reqTop > aRs1.value.top()) {
                char msg[112];
                std::snprintf(
                    msg, sizeof(msg),
                    "bounds widening: requested [%08x,+%llx) escapes "
                    "[%08x,%08x)",
                    static_cast<uint32_t>(reqBase),
                    static_cast<unsigned long long>(length),
                    aRs1.value.base(),
                    static_cast<uint32_t>(aRs1.value.top()));
                finding(FindingClass::Monotonicity, pc, msg, st);
            }
        }
        if (exact1 && lengthKnown) {
            const Capability result =
                inst.op == Op::CSetBoundsExact
                    ? aRs1.value.withBoundsExact(length)
                    : aRs1.value.withBounds(length);
            st.write(inst.rd, AbstractCap::exact(result));
        } else {
            st.write(inst.rd,
                     AbstractCap::unknown(
                         aRs1.definitelyUntagged() ? Tri::No : Tri::Maybe,
                         aRs1.local(), aRs1.sealed()));
        }
        goNext();
        return;
      }

      case Op::CTestSubset:
        intResult(exact12,
                  exact12 && cap::isSubsetOf(aRs2.value, aRs1.value) ? 1
                                                                     : 0);
        goNext();
        return;
      case Op::CSetEqualExact:
        intResult(exact12, exact12 && aRs1.value == aRs2.value ? 1 : 0);
        goNext();
        return;
      case Op::CMove: st.write(inst.rd, aRs1); goNext(); return;
      case Op::CClearTag:
        if (exact1) {
            st.write(inst.rd,
                     AbstractCap::exact(aRs1.value.withTagCleared()));
        } else {
            st.write(inst.rd, AbstractCap::unknown(Tri::No, aRs1.local(),
                                                   aRs1.sealed()));
        }
        goNext();
        return;
      case Op::CRrl:
        intResult(exact1, static_cast<uint32_t>(
                              cap::representableLength(v1)));
        goNext();
        return;
      case Op::CRam:
        intResult(exact1, cap::representableAlignmentMask(v1));
        goNext();
        return;

      case Op::CSealEntry: {
        const auto posture =
            static_cast<cap::InterruptPosture>(inst.imm);
        if (exact1) {
            const auto sentry = cap::makeSentry(aRs1.value, posture);
            if (!sentry && aRs1.value.tag()) {
                finding(FindingClass::Sealing, pc,
                        "sentry minted from a sealed or non-executable "
                        "capability",
                        st);
            }
            st.write(inst.rd,
                     AbstractCap::exact(sentry
                                            ? *sentry
                                            : aRs1.value.withTagCleared()));
        } else {
            st.write(inst.rd, AbstractCap::unknown(
                                  Tri::Maybe, aRs1.local(), Tri::Maybe));
        }
        goNext();
        return;
      }

      case Op::CSpecialRw:
        if (st.pcc.isExact() &&
            !st.pcc.value.perms().has(cap::PermSystemRegs)) {
            finding(FindingClass::Monotonicity, pc,
                    "special-register access without SystemRegs "
                    "permission on PCC",
                    st);
            return;
        }
        // SCR contents are not tracked.
        st.write(inst.rd, AbstractCap::unknown());
        goNext();
        return;
    }
}

} // namespace

const char *
findingClassName(FindingClass cls)
{
    switch (cls) {
      case FindingClass::Monotonicity: return "monotonicity";
      case FindingClass::SwitcherAbi: return "switcher-abi";
      case FindingClass::StackLeak: return "stack-leak";
      case FindingClass::Sealing: return "sealing";
      case FindingClass::Lint: return "lint";
      case FindingClass::SharedMutable: return "shared-mutable";
    }
    return "?";
}

std::string
Finding::toString() const
{
    char head[96];
    if (pc != 0) {
        std::snprintf(head, sizeof(head), "[%s] %s @%08x: ",
                      findingClassName(cls), compartment.c_str(), pc);
    } else {
        std::snprintf(head, sizeof(head), "[%s] %s: ",
                      findingClassName(cls), compartment.c_str());
    }
    std::string out = head + message;
    if (!latticeState.empty()) {
        out += "\n";
        out += latticeState;
    }
    return out;
}

bool
Report::hasClass(FindingClass cls) const
{
    for (const auto &f : findings) {
        if (f.cls == cls) {
            return true;
        }
    }
    return false;
}

std::string
Report::toString() const
{
    char head[224];
    std::snprintf(
        head, sizeof(head),
        "cheriot-verify %s: %zu finding(s), %llu state "
        "update(s), %llu instruction(s), %llu function(s), "
        "%llu edge(s), %llu summar%s%s\n",
        image.c_str(), findings.size(),
        static_cast<unsigned long long>(statesExplored),
        static_cast<unsigned long long>(instructionsAnalyzed),
        static_cast<unsigned long long>(callGraphFunctions),
        static_cast<unsigned long long>(callGraphEdges),
        static_cast<unsigned long long>(summariesComputed),
        summariesComputed == 1 ? "y" : "ies",
        budgetExhausted ? " [budget exhausted]" : "");
    std::string out = head;
    for (const auto &f : findings) {
        out += f.toString();
        if (out.back() != '\n') {
            out += "\n";
        }
    }
    return out;
}

Report
analyzeProgram(const ProgramImage &image, const AnalyzerOptions &options,
               CallGraph *graphOut)
{
    Interp interp(image, options);
    Report report = interp.run();
    if (graphOut != nullptr) {
        *graphOut = std::move(interp.graph);
    }
    return report;
}

Report
verifyKernel(rtos::Kernel &kernel, const Policy &policy)
{
    Report report;
    report.image = "kernel";
    const rtos::AuditReport audit = rtos::auditKernel(kernel);
    for (const auto &violation : policy.evaluate(audit)) {
        Finding f;
        f.cls = violation.cls;
        f.compartment = violation.compartment;
        f.pc = 0;
        f.message = violation.message + " [" + violation.rule + "]";
        report.findings.push_back(std::move(f));
    }
    return report;
}

} // namespace cheriot::verify
