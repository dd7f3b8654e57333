/**
 * @file
 * CoreMark list kernel: build a singly linked list, then per
 * iteration reverse it, checksum the values, and run a find — the
 * pointer-chasing half of CoreMark, and the part where capability
 * width (two bus beats on Ibex) and the load filter's extra cycle
 * show up (Table 3).
 *
 * Register conventions (whole benchmark):
 *   s0  arena pointer        s1  outer iteration counter
 *   gp  list head            tp  running checksum
 *   sp  saved memory root (capability mode)
 *   t0-t2, a0-a5 scratch
 */

#include "workloads/coremark/coremark.h"

namespace cheriot::workloads
{

using namespace cheriot::isa;

void
CoreMarkBuilder::emitListInit()
{
    auto &a = asm_;
    const uint32_t stride = nodeStride();
    const uint32_t nodes = kListNodes;
    const int32_t infoOff = static_cast<int32_t>(ptr_.ptrSize());
    const int32_t valueOff = 2 * infoOff;

    // Build back to front so each node's next pointer is ready.
    a.li(T0, static_cast<int32_t>(nodes));
    a.li(T2, static_cast<int32_t>(listBase() + (nodes - 1) * stride));
    a.mv(T1, Zero); // prev = null
    const auto loop = a.here();
    ptr_.derivePtr(a, A2, S0, T2);
    ptr_.boundPtr(a, A2, static_cast<int32_t>(stride)); // per-node bounds
    a.addi(A3, T0, -1);
    a.sw(A3, A2, valueOff);       // node.value = index
    // node.info: pointer to the node's data (CoreMark indirection).
    ptr_.addPtr(a, A4, A2, valueOff);
    ptr_.storePtr(a, A4, A2, infoOff);
    ptr_.storePtr(a, T1, A2, 0);  // node.next = prev
    ptr_.movePtr(a, T1, A2);
    a.addi(T2, T2, -static_cast<int32_t>(stride));
    a.addi(T0, T0, -1);
    a.bnez(T0, loop);
    ptr_.movePtr(a, Gp, T1); // head = first node
}

void
CoreMarkBuilder::emitListBench()
{
    auto &a = asm_;
    const int32_t infoOff = static_cast<int32_t>(ptr_.ptrSize());
    const int32_t valueOff = 2 * infoOff;
    a.bind(listBenchLabel_);

    // --- Reverse the list in place -------------------------------------
    a.mv(T1, Zero);          // prev = null
    ptr_.movePtr(a, T0, Gp); // cur = head
    const auto revLoop = a.here();
    const auto revDone = a.newLabel();
    a.beqz(T0, revDone);
    ptr_.loadPtr(a, T2, T0, 0);  // next = cur->next
    ptr_.storePtr(a, T1, T0, 0); // cur->next = prev
    ptr_.movePtr(a, T1, T0);
    ptr_.movePtr(a, T0, T2);
    a.j(revLoop);
    a.bind(revDone);
    ptr_.movePtr(a, Gp, T1);

    // --- Walk and checksum ----------------------------------------------
    ptr_.movePtr(a, T0, Gp);
    a.li(A4, 0);
    const auto sumLoop = a.here();
    const auto sumDone = a.newLabel();
    a.beqz(T0, sumDone);
    ptr_.loadPtr(a, A5, T0, infoOff); // follow the info pointer
    a.lw(A3, A5, 0);
    a.add(A4, A4, A3);
    ptr_.loadPtr(a, T0, T0, 0); // pointer chase: load feeds the branch
    a.j(sumLoop);
    a.bind(sumDone);
    // Mix into the running checksum: tp = rotl(tp ^ sum, 1).
    a.xor_(Tp, Tp, A4);
    a.slli(A5, Tp, 1);
    a.srli(A2, Tp, 31);
    a.or_(Tp, A5, A2);

    // --- Find a value (depends on the iteration counter) ----------------
    a.andi(A3, S1, static_cast<int32_t>(kListNodes - 1));
    ptr_.movePtr(a, T0, Gp);
    const auto findLoop = a.here();
    const auto findDone = a.newLabel();
    a.beqz(T0, findDone);
    a.lw(A2, T0, valueOff);
    a.beq(A2, A3, findDone);
    ptr_.loadPtr(a, T0, T0, 0);
    a.j(findLoop);
    a.bind(findDone);
    a.ret();
}

} // namespace cheriot::workloads
