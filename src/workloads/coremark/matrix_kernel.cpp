/**
 * @file
 * CoreMark matrix kernel: N×N integer matrix multiply with a
 * checksum over the products. Data accesses go through the same base
 * register in both modes, so the capability cost here is the
 * compiler-emulation overhead (unfolded address arithmetic, bounds
 * re-application on global rows) rather than bus traffic — which is
 * why Flute's total overhead in Table 3 is mostly attributable to
 * the known code-generation bugs.
 */

#include "workloads/coremark/coremark.h"

namespace cheriot::workloads
{

using namespace cheriot::isa;

void
CoreMarkBuilder::emitMatrixInit()
{
    auto &a = asm_;
    const uint32_t n = kMatrixN;
    const uint32_t cells = 2 * n * n; // A and B are contiguous.

    a.li(A0, static_cast<int32_t>(matrixABase()));
    ptr_.derivePtr(a, A2, S0, A0);
    ptr_.boundPtr(a, A2, static_cast<int32_t>(cells * 4));
    a.li(T0, static_cast<int32_t>(cells));
    a.li(T1, 12345); // LCG seed
    const auto fill = a.here();
    a.li(A3, 1103515245);
    a.mul(T1, T1, A3);
    a.li(A3, 12345);
    a.add(T1, T1, A3);
    a.srli(A4, T1, 16);
    a.andi(A4, A4, 255);
    a.sw(A4, A2, 0);
    ptr_.addPtr(a, A2, A2, 4);
    a.addi(T0, T0, -1);
    a.bnez(T0, fill);
}

void
CoreMarkBuilder::emitMatrixBench()
{
    auto &a = asm_;
    const int32_t n = static_cast<int32_t>(kMatrixN);
    const int32_t rowBytes = n * 4;
    a.bind(matrixBenchLabel_);

    a.li(T0, n); // i counter
    a.li(A0, static_cast<int32_t>(matrixABase()));
    ptr_.derivePtr(a, A2, S0, A0); // rowBase = &A[0][0]

    const auto iLoop = a.here();
    a.li(T1, n); // j counter
    a.li(A0, static_cast<int32_t>(matrixBBase()));
    ptr_.derivePtr(a, A3, S0, A0); // colPtr = &B[0][0]

    const auto jLoop = a.here();
    ptr_.movePtr(a, A5, A2); // elemPtr = rowBase
    // §7.2's compiler bugs: bounds applied to the global row access
    // and unfolded capability address arithmetic.
    ptr_.globalAccessOverhead(a, A5, rowBytes);
    a.li(T2, n); // k counter
    a.li(A4, 0); // acc

    const auto kLoop = a.here();
    ptr_.unfoldedIndexOverhead(a, A5); // §7.2 bug 1 on A[i][k]
    a.lw(A0, A5, 0);
    ptr_.unfoldedIndexOverhead(a, A3); // ... and on B[k][j]
    a.lw(A1, A3, 0);
    a.mul(A0, A0, A1);
    a.add(A4, A4, A0);
    ptr_.addPtr(a, A5, A5, 4);        // A row walks right
    ptr_.addPtr(a, A3, A3, rowBytes); // B column walks down
    a.addi(T2, T2, -1);
    a.bnez(T2, kLoop);

    a.xor_(Tp, Tp, A4); // checksum the dot product
    // Rewind colPtr to the top of the next column.
    ptr_.addPtr(a, A3, A3, -(n * rowBytes - 4));
    a.addi(T1, T1, -1);
    a.bnez(T1, jLoop);

    ptr_.addPtr(a, A2, A2, rowBytes); // next row of A
    a.addi(T0, T0, -1);
    a.bnez(T0, iLoop);
    a.ret();
}

} // namespace cheriot::workloads
