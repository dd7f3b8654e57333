/**
 * @file
 * The register-to-register ops of the op table, shared by the isa
 * aliasing test and the seeded programs of the run-loop tests.
 */

#ifndef CHERIOT_TESTS_ISA_REGISTER_OPS_H
#define CHERIOT_TESTS_ISA_REGISTER_OPS_H

#include "isa/encoding.h"

#include <vector>

namespace cheriot::isa
{

/** The ops that write a register and do nothing else: no memory, no
 * control transfer, no CSR or special register. */
inline const std::vector<Op> &
registerOps()
{
    static const std::vector<Op> ops = [] {
        std::vector<Op> out;
        for (const Op op : allOps()) {
            const OpSummary &summary = summaryOf(op);
            const bool memoryOrControl =
                op == Op::Jal || op == Op::Jalr || op == Op::Lb ||
                op == Op::Lh || op == Op::Lw || op == Op::Lbu ||
                op == Op::Lhu || op == Op::Clc || op == Op::CSpecialRw;
            if (summary.writesRd && !summary.usesCsr && !memoryOrControl) {
                out.push_back(op);
            }
        }
        return out;
    }();
    return ops;
}

} // namespace cheriot::isa

#endif // CHERIOT_TESTS_ISA_REGISTER_OPS_H
