/**
 * @file
 * CoreMark state-machine kernel: scan a byte buffer classifying each
 * character (digit / alphabetic / other) and advance a small state
 * machine, accumulating the state trace into the checksum. Branchy
 * byte-granularity work with no pointer loads: it dilutes the
 * capability overhead in the blended score, as in real CoreMark.
 */

#include "workloads/coremark/coremark.h"

namespace cheriot::workloads
{

using namespace cheriot::isa;

void
CoreMarkBuilder::emitStateInit()
{
    auto &a = asm_;
    a.li(A0, static_cast<int32_t>(stateBase()));
    ptr_.derivePtr(a, A2, S0, A0);
    ptr_.boundPtr(a, A2, static_cast<int32_t>(kStateBytes));
    a.li(T0, static_cast<int32_t>(kStateBytes));
    a.li(T1, 0x5eed1234); // LCG seed
    const auto fill = a.here();
    a.li(A3, 1664525);
    a.mul(T1, T1, A3);
    a.li(A3, 1013904223);
    a.add(T1, T1, A3);
    a.srli(A4, T1, 24);
    a.andi(A4, A4, 127);
    a.sb(A4, A2, 0);
    ptr_.addPtr(a, A2, A2, 1);
    a.addi(T0, T0, -1);
    a.bnez(T0, fill);
}

void
CoreMarkBuilder::emitStateBench()
{
    auto &a = asm_;
    a.bind(stateBenchLabel_);

    a.li(A0, static_cast<int32_t>(stateBase()));
    ptr_.derivePtr(a, A2, S0, A0);
    ptr_.globalAccessOverhead(a, A2,
                              static_cast<int32_t>(kStateBytes));
    a.li(T0, static_cast<int32_t>(kStateBytes));
    a.li(T1, 0); // machine state

    const auto loop = a.here();
    const auto classDigit = a.newLabel();
    const auto classAlpha = a.newLabel();
    const auto classDone = a.newLabel();

    a.lbu(A3, A2, 0);
    // digit: '0' <= c <= '9'
    a.addi(A4, A3, -48);
    a.sltiu(A4, A4, 10);
    a.bnez(A4, classDigit);
    // alpha: lower-cased in 'a'..'z'
    a.ori(A4, A3, 32);
    a.addi(A4, A4, -97);
    a.sltiu(A4, A4, 26);
    a.bnez(A4, classAlpha);
    a.li(A4, 0);
    a.j(classDone);
    a.bind(classDigit);
    a.li(A4, 1);
    a.j(classDone);
    a.bind(classAlpha);
    a.li(A4, 2);
    a.bind(classDone);

    // state = (state * 4 + class) mod 8; checksum the trace.
    a.slli(T1, T1, 2);
    a.add(T1, T1, A4);
    a.andi(T1, T1, 7);
    a.add(Tp, Tp, T1);

    ptr_.addPtr(a, A2, A2, 1);
    a.addi(T0, T0, -1);
    a.bnez(T0, loop);
    a.ret();
}

} // namespace cheriot::workloads
