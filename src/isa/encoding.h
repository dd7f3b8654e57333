/**
 * @file
 * CHERIoT RV32E instruction set: operations, formats, and binary
 * encoding.
 *
 * The base ISA is RV32EM (16 registers). The CHERIoT extension
 * follows the published encoding conventions where practical:
 * capability load/store reuse the RV64 LD/SD encodings (funct3 = 3 on
 * the LOAD/STORE major opcodes — free in RV32), and capability
 * manipulation lives on major opcode 0x5B with an R-type layout whose
 * funct7 selects the operation; funct7 = 0x7F selects two-operand
 * ops with the sub-operation in the rs2 field. Immediate-form
 * CIncAddr/CSetBounds use funct3 1 and 2 on the same major opcode.
 *
 * In CHERIoT's pure-capability mode every memory access and jump is
 * authorised by a capability register; there is no separate
 * integer-pointer addressing mode.
 */

#ifndef CHERIOT_ISA_ENCODING_H
#define CHERIOT_ISA_ENCODING_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cheriot::isa
{

/** Number of architectural registers (RV32E). */
constexpr unsigned kNumRegs = 16;

/** @name ABI register numbers @{ */
constexpr uint8_t Zero = 0; ///< c0: hard-wired null.
constexpr uint8_t Ra = 1;   ///< c1: return address (capability).
constexpr uint8_t Sp = 2;   ///< c2: stack pointer (capability).
constexpr uint8_t Gp = 3;   ///< c3: globals pointer (capability).
constexpr uint8_t Tp = 4;   ///< c4: thread pointer.
constexpr uint8_t T0 = 5;
constexpr uint8_t T1 = 6;
constexpr uint8_t T2 = 7;
constexpr uint8_t S0 = 8;
constexpr uint8_t S1 = 9;
constexpr uint8_t A0 = 10;
constexpr uint8_t A1 = 11;
constexpr uint8_t A2 = 12;
constexpr uint8_t A3 = 13;
constexpr uint8_t A4 = 14;
constexpr uint8_t A5 = 15;
/** @} */

/** Every operation the core implements. */
enum class Op : uint8_t
{
    Illegal,
    // RV32I
    Lui, Auipc, Jal, Jalr,
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    Lb, Lh, Lw, Lbu, Lhu,
    Sb, Sh, Sw,
    Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai,
    Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
    Ecall, Ebreak, Mret,
    Csrrw, Csrrs, Csrrc, Csrrwi, Csrrsi, Csrrci,
    // RV32M
    Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu,
    // CHERIoT capability extension
    Clc, Csc,
    CGetPerm, CGetType, CGetBase, CGetLen, CGetTop, CGetTag, CGetAddr,
    CSeal, CUnseal, CAndPerm, CSetAddr, CIncAddr, CIncAddrImm,
    CSetBounds, CSetBoundsExact, CSetBoundsImm,
    CTestSubset, CSetEqualExact,
    CMove, CClearTag, CRrl, CRam,
    CSealEntry, ///< Mint a forward sentry; rs2 selects the posture.
    CSpecialRw, ///< Special capability register access; rs2 selects.
};

/** Special capability registers accessed via CSpecialRw. */
enum class Scr : uint8_t
{
    Mtcc = 28,     ///< Machine trap-vector code capability.
    Mtdc = 29,     ///< Machine trap data capability.
    MScratchC = 30,///< Machine scratch capability.
    Mepcc = 31,    ///< Machine exception PC capability.
};

/** @name CSR numbers @{ */
constexpr uint16_t kCsrMstatus = 0x300;
constexpr uint16_t kCsrMcause = 0x342;
constexpr uint16_t kCsrMtval = 0x343;
constexpr uint16_t kCsrMshwm = 0x7c0;  ///< Stack high-water mark (§5.2.1).
constexpr uint16_t kCsrMshwmb = 0x7c1; ///< Stack base register.
constexpr uint16_t kCsrMcycle = 0xb00;
constexpr uint16_t kCsrMcycleH = 0xb80;
/** @} */

/** A decoded (or to-be-encoded) instruction. */
struct Inst
{
    Op op = Op::Illegal;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int32_t imm = 0;   ///< Sign-extended where the format is signed.
    uint16_t csr = 0;  ///< CSR number for Zicsr ops.

    bool operator==(const Inst &) const = default;
};

/**
 * Encode to the 32-bit instruction word.
 * Panics on malformed operands (out-of-range registers or immediates
 * that do not fit the format); the assembler validates before calling.
 */
uint32_t encode(const Inst &inst);

/** Why a word failed to decode. */
enum class DecodeErrorKind : uint8_t
{
    None,               ///< The word decoded successfully.
    UnknownMajorOpcode, ///< No instruction uses this major opcode.
    ReservedFunct3,     ///< funct3 value reserved on this opcode.
    ReservedFunct7,     ///< funct7 value reserved on this opcode/funct3.
    ReservedSubOp,      ///< CHERI two-operand sub-op (rs2 slot) reserved.
    ReservedSystem,     ///< SYSTEM word is not ECALL/EBREAK/MRET.
    RegisterOutOfRange, ///< Register specifier >= 16 (RV32E).
};

/** Stable name of a decode-error kind ("reserved-funct3", ...). */
const char *decodeErrorKindName(DecodeErrorKind kind);

/**
 * Precise diagnosis of an undecodable word: which major opcode it
 * carried, which field was malformed, and that field's value.
 */
struct DecodeError
{
    DecodeErrorKind kind = DecodeErrorKind::None;
    uint8_t opcode = 0;     ///< Major opcode bits [6:0].
    const char *field = ""; ///< Offending field ("funct3", "rd", ...).
    uint32_t value = 0;     ///< The offending field's value.

    bool ok() const { return kind == DecodeErrorKind::None; }
    std::string toString() const;
};

/**
 * Decode a 32-bit instruction word. Returns an Inst with
 * op == Op::Illegal for unrecognised encodings (the executor raises
 * an illegal-instruction trap).
 *
 * Decoding reads the op table encode() writes from, and checks the
 * fields in one order for every opcode: the major opcode, the fixed
 * SYSTEM words, funct3, funct7, the sub-op or posture, then the rd,
 * rs1 and rs2 registers. A word with several defects is diagnosed at
 * the first of them.
 */
Inst decode(uint32_t word);

/** As decode(word), filling @p error with a typed diagnosis when the
 * word does not decode (and clearing it when it does). */
Inst decode(uint32_t word, DecodeError *error);

/** Immediate shape of an operation (none, or which field format). */
enum class ImmKind : uint8_t
{
    None,    ///< No immediate operand.
    I12,     ///< 12-bit signed (loads, addi, jalr, cincaddrimm).
    U12,     ///< 12-bit zero-extended (csetboundsimm).
    S12,     ///< 12-bit signed store offset.
    B13,     ///< 13-bit even branch offset.
    U20,     ///< Upper-immediate (lui/auipcc; imm holds value << 12).
    J21,     ///< 21-bit even jump offset.
    Shamt,   ///< 5-bit shift amount.
    Csr5,    ///< 5-bit zero-extended CSR immediate.
    Scr,     ///< Special-capability-register index (0..31).
    Posture, ///< Sentry interrupt posture (0..2).
};

/**
 * Per-operation operand metadata, derived from the operation's
 * encoding format: which register fields are live and the immediate
 * shape. Drives the executor's load-to-use check and generic
 * whole-ISA enumeration (round-trip fuzzing) without per-op special
 * cases.
 */
struct OpSummary
{
    Op op = Op::Illegal;
    bool readsRs1 = false;
    bool readsRs2 = false;
    bool writesRd = false;
    ImmKind immKind = ImmKind::None;
    bool usesCsr = false;   ///< Carries a 12-bit CSR number.
};

/** Number of Op values, Illegal included. */
constexpr size_t kOpCount = static_cast<size_t>(Op::CSpecialRw) + 1;

/** Every op's summary, indexed by Op (use summaryOf). */
extern const std::array<OpSummary, kOpCount> kOpSummaries;

/** Metadata for @p op (Illegal yields an all-false summary). */
inline const OpSummary &
summaryOf(Op op)
{
    return kOpSummaries[static_cast<size_t>(op)];
}

/** Every valid operation in a stable order (fuzz enumeration). */
const std::vector<Op> &allOps();

/**
 * Parse one line of disassembly back into an Inst. @p pc must be the
 * instruction's address — branch and jump targets are printed as
 * absolute addresses and are converted back to offsets. A line is
 * accepted only when disassemble() of the result, at @p pc, reproduces
 * it byte for byte, and only when its operands fit the ranges its
 * format (and so encode()) accepts; anything else yields nullopt.
 */
std::optional<Inst> parseAssembly(const std::string &text, uint32_t pc);

/** Mnemonic for an operation. */
const char *opName(Op op);

/** ABI name of register @p index ("zero", "ra", "sp", ...). */
const char *regName(uint8_t index);

/** Human-readable rendering of a decoded instruction. */
std::string disassemble(const Inst &inst, uint32_t pc = 0);

} // namespace cheriot::isa

#endif // CHERIOT_ISA_ENCODING_H
