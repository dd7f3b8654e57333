/**
 * @file
 * The instruction table, private to isa/. One row per operation states
 * its mnemonic, format, opcode, funct3, funct7 and sub-op; encode,
 * decode, the text forms and the operand summaries are all derived
 * from the rows and from the format's field layout.
 */

#ifndef CHERIOT_ISA_OP_TABLE_H
#define CHERIOT_ISA_OP_TABLE_H

#include "isa/encoding.h"

#include <string_view>

namespace cheriot::isa
{

/** Encoding format: which fields a word carries, and the text form. */
enum class Fmt : uint8_t
{
    R,      ///< funct7 | rs2 | rs1 | funct3 | rd | opcode
    I,      ///< imm12 (signed) | rs1 | funct3 | rd | opcode
    IMem,   ///< I layout, printed "rd, imm(rs1)" (jalr, loads)
    IU,     ///< imm12 (zero-extended) | rs1 | funct3 | rd | opcode
    IShift, ///< funct7 | shamt | rs1 | funct3 | rd | opcode
    S,      ///< store split-immediate
    B,      ///< branch split-immediate
    U,      ///< imm[31:12] | rd | opcode
    J,      ///< jump split-immediate
    Fixed,  ///< funct7 | sub | 0 | funct3 | 0 | opcode (ECALL/EBREAK/MRET)
    Csr,    ///< csr | rs1 | funct3 | rd | opcode
    CsrI,   ///< csr | uimm5 | funct3 | rd | opcode
    TwoOp,  ///< funct7 | sub (rs2 slot) | rs1 | funct3 | rd | opcode
    ScrRw,  ///< funct7 | scr (rs2 slot) | rs1 | funct3 | rd | opcode
    SealE,  ///< funct7 | posture (rs2 slot) | rs1 | funct3 | rd | opcode
};

struct OpInfo
{
    Op op;
    const char *name;
    Fmt fmt;
    uint8_t opcode;
    uint8_t f3;  ///< funct3, where the format has one.
    uint8_t f7;  ///< funct7, where the format has one.
    uint8_t sub; ///< Selector in the rs2 slot (TwoOp and Fixed).
};

/** The row of @p op; panics on Op::Illegal. */
const OpInfo &infoFor(Op op);

/** The row whose mnemonic is @p name, or nullptr. */
const OpInfo *infoNamed(std::string_view name);

/**
 * Whether @p inst's immediate and CSR number fit @p info's format.
 * encode() panics and parseAssembly() refuses the text when not.
 */
bool operandsFit(const OpInfo &info, const Inst &inst);

} // namespace cheriot::isa

#endif // CHERIOT_ISA_OP_TABLE_H
