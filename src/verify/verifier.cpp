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
                         unsigned bytes, bool isStore,
                         const AbstractCap *stored = nullptr);

    void foldFindings(uint32_t pc, const AbstractState &st, const Inst &inst,
                      const Capability &rs1, const Capability &rs2,
                      const Capability &value);

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
 * Whether an access through @p auth at offset @p imm definitely traps;
 * if so the finding is recorded and the path ends. An exact authority
 * is judged by the machine's own rules, isa::accessCause and (for a
 * capability store of @p stored) isa::capStoreCause; any other by its
 * definite tag and seal attributes alone.
 */
bool
Analyzer::memAccessFaults(uint32_t pc, const AbstractState &st,
                          const AbstractCap &auth, int32_t imm,
                          unsigned bytes, bool isStore,
                          const AbstractCap *stored)
{
    const Capability &c = auth.value;
    const uint32_t addr = c.address() + imm;
    isa::TrapCause cause = isa::TrapCause::None;
    bool storeSide = false;
    if (auth.isExact()) {
        cause = isa::accessCause(c, addr, bytes,
                                 isStore ? cap::PermStore : cap::PermLoad);
        if (cause == isa::TrapCause::None && stored != nullptr) {
            storeSide = true;
            cause = isa::capStoreCause(c, stored->definitelyTagged(),
                                       stored->definitelyLocal());
        }
    } else if (auth.definitelyUntagged()) {
        cause = isa::TrapCause::CheriTagViolation;
    } else if (auth.definitelySealed()) {
        cause = isa::TrapCause::CheriSealViolation;
    }

    if (cause == isa::TrapCause::None) {
        return false;
    }
    const std::string what = isStore ? "store" : "load";
    switch (cause) {
      case isa::TrapCause::CheriTagViolation:
        finding(FindingClass::Monotonicity, pc,
                what +
                    " through untagged capability (authority was "
                    "destroyed by a non-monotone manipulation)",
                st);
        break;
      case isa::TrapCause::CheriSealViolation:
        finding(FindingClass::Sealing, pc,
                what + " through sealed capability", st);
        break;
      case isa::TrapCause::CheriPermViolation:
        finding(FindingClass::Monotonicity, pc,
                storeSide ? "capability store through data-only (no MC) "
                            "authority"
                          : what + " authority lacks " +
                                (isStore ? "SD" : "LD") + " permission",
                st);
        break;
      case isa::TrapCause::CheriBoundsViolation: {
        char msg[96];
        std::snprintf(msg, sizeof(msg),
                      "out-of-bounds %s: [%08x,+%u) outside "
                      "[%08x,%08x)",
                      what.c_str(), addr, bytes, c.base(),
                      static_cast<uint32_t>(c.top()));
        finding(FindingClass::Monotonicity, pc, msg, st);
        break;
      }
      case isa::TrapCause::MisalignedAccess:
        finding(FindingClass::Monotonicity, pc, "misaligned " + what, st);
        break;
      case isa::TrapCause::CheriStoreLocalViolation:
        finding(FindingClass::StackLeak, pc,
                "local (stack-derived) capability stored "
                "through authority without Store-Local: the "
                "§5.2 stack-capability leak",
                st);
        break;
      default:
        break;
    }
    return true;
}

/**
 * The findings of an op folded with known operands: a seal, unseal or
 * sentry that fails on tagged inputs (isa::evaluate then returns rs1
 * untagged), and bounds requested outside the authority's own.
 */
void
Analyzer::foldFindings(uint32_t pc, const AbstractState &st,
                       const Inst &inst, const Capability &rs1,
                       const Capability &rs2, const Capability &value)
{
    switch (inst.op) {
      case Op::CSeal:
        if (!value.tag() && rs1.tag() && rs2.tag()) {
            finding(FindingClass::Sealing, pc,
                    "seal with authority whose otype/permission "
                    "does not cover the target",
                    st);
        }
        return;
      case Op::CUnseal:
        if (!value.tag() && rs1.tag() && rs2.tag()) {
            finding(FindingClass::Sealing, pc,
                    "unseal with authority whose otype/permission "
                    "does not match the target's seal",
                    st);
        }
        return;
      case Op::CSealEntry:
        if (!value.tag() && rs1.tag()) {
            finding(FindingClass::Sealing, pc,
                    "sentry minted from a sealed or non-executable "
                    "capability",
                    st);
        }
        return;
      case Op::CSetBounds:
      case Op::CSetBoundsExact:
      case Op::CSetBoundsImm: {
        if (!rs1.tag() || rs1.isSealed()) {
            return;
        }
        const uint64_t length = inst.op == Op::CSetBoundsImm
                                    ? static_cast<uint32_t>(inst.imm)
                                    : rs2.address();
        const uint64_t reqBase = rs1.address();
        const uint64_t reqTop = reqBase + length;
        if (reqBase < rs1.base() || reqTop > rs1.top()) {
            char msg[112];
            std::snprintf(msg, sizeof(msg),
                          "bounds widening: requested [%08x,+%llx) escapes "
                          "[%08x,%08x)",
                          static_cast<uint32_t>(reqBase),
                          static_cast<unsigned long long>(length),
                          rs1.base(), static_cast<uint32_t>(rs1.top()));
            finding(FindingClass::Monotonicity, pc, msg, st);
        }
        return;
      }
      default:
        return;
    }
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
    // Every register the op reads holds a known value.
    const isa::OpSummary &reads = isa::summaryOf(inst.op);
    const bool exact = (!reads.readsRs1 || aRs1.isExact()) &&
                       (!reads.readsRs2 || aRs2.isExact());

    auto goNext = [&]() { post(nextPc, st); };
    auto result = [&](const AbstractCap &value) {
        st.write(inst.rd, value);
        goNext();
    };
    /** A register-to-register op: with known operands, the value the
     * executor computes; else @p abstract, the attributes that hold
     * for every operand value. */
    auto evaluated = [&](const AbstractCap &abstract) {
        if (!exact) {
            result(abstract);
            return;
        }
        const Capability value =
            isa::evaluate(inst.op, inst.imm, aRs1.value, aRs2.value);
        foldFindings(pc, st, inst, aRs1.value, aRs2.value, value);
        result(AbstractCap::exact(value));
    };

    switch (inst.op) {
      case Op::Illegal:
        return; // Illegal-instruction trap: the path ends.

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
        if (exact) {
            // Both operands known: fold the branch so dead arms do not
            // pollute the fixpoint (and cannot cause false positives).
            post(isa::branchTaken(inst.op, aRs1.address(), aRs2.address())
                     ? target
                     : nextPc,
                 st);
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
        if (memAccessFaults(pc, st, aRs1, inst.imm, bytes, false)) {
            return;
        }
        result(AbstractCap::unknownInt()); // Memory contents are not modelled.
        return;
      }

      case Op::Sb: case Op::Sh: case Op::Sw: {
        const unsigned bytes = inst.op == Op::Sb ? 1
                               : inst.op == Op::Sh ? 2 : 4;
        if (memAccessFaults(pc, st, aRs1, inst.imm, bytes, true)) {
            return;
        }
        goNext();
        return;
      }

      case Op::Clc: {
        if (memAccessFaults(pc, st, aRs1, inst.imm, 8, false)) {
            return;
        }
        // The loaded value is unknown, but the authority's load-side
        // attenuation (§3.1.1) gives definite attribute facts: no MC
        // means the value arrives untagged; no LG means it arrives
        // local.
        Tri tagged = Tri::Maybe;
        Tri local = Tri::Maybe;
        if (exact) {
            if (!aRs1.value.perms().has(cap::PermMemCap)) {
                tagged = Tri::No;
            }
            if (!aRs1.value.perms().has(cap::PermLoadGlobal)) {
                local = Tri::Yes;
            }
        }
        result(AbstractCap::unknown(tagged, local, Tri::Maybe));
        return;
      }

      case Op::Csc: {
        if (memAccessFaults(pc, st, aRs1, inst.imm, 8, true, &aRs2)) {
            return;
        }
        goNext();
        return;
      }

      case Op::Lui:
      case Op::Addi: case Op::Slti: case Op::Sltiu: case Op::Xori:
      case Op::Ori: case Op::Andi: case Op::Slli: case Op::Srli:
      case Op::Srai:
      case Op::Add: case Op::Sub: case Op::Sll: case Op::Slt:
      case Op::Sltu: case Op::Xor: case Op::Srl: case Op::Sra:
      case Op::Or: case Op::And:
      case Op::Mul: case Op::Mulh: case Op::Mulhsu: case Op::Mulhu:
      case Op::Div: case Op::Divu: case Op::Rem: case Op::Remu:
      case Op::CGetPerm: case Op::CGetType: case Op::CGetBase:
      case Op::CGetLen: case Op::CGetTop: case Op::CGetAddr:
      case Op::CTestSubset: case Op::CSetEqualExact:
      case Op::CRrl: case Op::CRam:
        evaluated(AbstractCap::unknownInt());
        return;

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
        result(AbstractCap::unknownInt());
        return;

      case Op::CGetTag:
        // A definite tag attribute is enough.
        evaluated(aRs1.tagged() == Tri::Maybe
                      ? AbstractCap::unknownInt()
                      : AbstractCap::integer(aRs1.definitelyTagged() ? 1
                                                                      : 0));
        return;
      case Op::CSeal:
      case Op::CUnseal:
      case Op::CSealEntry:
        evaluated(AbstractCap::unknown(Tri::Maybe, aRs1.local(), Tri::Maybe));
        return;
      case Op::CAndPerm:
        // Permissions only shed: a definitely-local input stays local.
        evaluated(AbstractCap::unknown(
            aRs1.definitelyUntagged() ? Tri::No : Tri::Maybe,
            aRs1.local() == Tri::Yes ? Tri::Yes : Tri::Maybe,
            aRs1.sealed()));
        return;
      case Op::CSetAddr:
      case Op::CIncAddr:
      case Op::CIncAddrImm:
      case Op::CSetBounds:
      case Op::CSetBoundsExact:
      case Op::CSetBoundsImm:
        // Address and bounds edits: the tag may clear, GL and otype
        // are untouched.
        evaluated(AbstractCap::unknown(
            aRs1.definitelyUntagged() ? Tri::No : Tri::Maybe, aRs1.local(),
            aRs1.sealed()));
        return;
      case Op::CMove: evaluated(aRs1); return;
      case Op::CClearTag:
        evaluated(AbstractCap::unknown(Tri::No, aRs1.local(), aRs1.sealed()));
        return;

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
        result(AbstractCap::unknown());
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
