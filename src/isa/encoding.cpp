/**
 * @file
 * The instruction table and the binary encoding in both directions.
 * decode() is the inverse of encode(): both read the same rows and
 * the same per-format field layout.
 */

#include "isa/encoding.h"
#include "isa/op_table.h"

#include "util/bits.h"
#include "util/log.h"

#include <cstdio>

namespace cheriot::isa
{

namespace
{

/** The fields a format's words carry (indexed by Fmt). */
struct FmtFields
{
    bool f3, f7, sub; ///< funct3, funct7, selector in the rs2 slot.
    bool rd, rs1, rs2; ///< Register fields.
    ImmKind imm;
};

constexpr FmtFields kFormats[] = {
    // f3    f7     sub    rd     rs1    rs2
    {true, true, false, true, true, true, ImmKind::None},      // R
    {true, false, false, true, true, false, ImmKind::I12},     // I
    {true, false, false, true, true, false, ImmKind::I12},     // IMem
    {true, false, false, true, true, false, ImmKind::U12},     // IU
    {true, true, false, true, true, false, ImmKind::Shamt},    // IShift
    {true, false, false, false, true, true, ImmKind::S12},     // S
    {true, false, false, false, true, true, ImmKind::B13},     // B
    {false, false, false, true, false, false, ImmKind::U20},   // U
    {false, false, false, true, false, false, ImmKind::J21},   // J
    {true, true, true, false, false, false, ImmKind::None},    // Fixed
    {true, false, false, true, true, false, ImmKind::None},    // Csr
    {true, false, false, true, false, false, ImmKind::Csr5},   // CsrI
    {true, true, true, true, true, false, ImmKind::None},      // TwoOp
    {true, true, false, true, true, false, ImmKind::Scr},      // ScrRw
    {true, true, false, true, true, false, ImmKind::Posture},  // SealE
};
static_assert(std::size(kFormats) == static_cast<size_t>(Fmt::SealE) + 1);

constexpr const FmtFields &
fieldsOf(Fmt fmt)
{
    return kFormats[static_cast<size_t>(fmt)];
}

constexpr uint8_t kOpLui = 0x37;
constexpr uint8_t kOpAuipc = 0x17;
constexpr uint8_t kOpJal = 0x6f;
constexpr uint8_t kOpJalr = 0x67;
constexpr uint8_t kOpBranch = 0x63;
constexpr uint8_t kOpLoad = 0x03;
constexpr uint8_t kOpStore = 0x23;
constexpr uint8_t kOpImm = 0x13;
constexpr uint8_t kOpReg = 0x33;
constexpr uint8_t kOpSystem = 0x73;
constexpr uint8_t kOpCheri = 0x5b;

/** Highest sentry interrupt posture (CSealEntry's rs2 slot). */
constexpr uint32_t kMaxPosture = 2;

/**
 * One row per operation, in Op order (Illegal has none). Capability
 * loads and stores take the RV64 LD/SD funct3 (3) of LOAD and STORE;
 * capability manipulation lives on major opcode 0x5b, with funct7
 * 0x7f selecting the two-operand ops by their sub-op. The fixed
 * SYSTEM words are funct12 = funct7:sub (MRET's 0x302 = 0x18:2).
 */
constexpr OpInfo kOps[] = {
    // op, mnemonic, format, opcode, funct3, funct7, sub
    {Op::Lui, "lui", Fmt::U, kOpLui, 0, 0, 0},
    {Op::Auipc, "auipcc", Fmt::U, kOpAuipc, 0, 0, 0},
    {Op::Jal, "cjal", Fmt::J, kOpJal, 0, 0, 0},
    {Op::Jalr, "cjalr", Fmt::IMem, kOpJalr, 0, 0, 0},
    {Op::Beq, "beq", Fmt::B, kOpBranch, 0, 0, 0},
    {Op::Bne, "bne", Fmt::B, kOpBranch, 1, 0, 0},
    {Op::Blt, "blt", Fmt::B, kOpBranch, 4, 0, 0},
    {Op::Bge, "bge", Fmt::B, kOpBranch, 5, 0, 0},
    {Op::Bltu, "bltu", Fmt::B, kOpBranch, 6, 0, 0},
    {Op::Bgeu, "bgeu", Fmt::B, kOpBranch, 7, 0, 0},
    {Op::Lb, "lb", Fmt::IMem, kOpLoad, 0, 0, 0},
    {Op::Lh, "lh", Fmt::IMem, kOpLoad, 1, 0, 0},
    {Op::Lw, "lw", Fmt::IMem, kOpLoad, 2, 0, 0},
    {Op::Lbu, "lbu", Fmt::IMem, kOpLoad, 4, 0, 0},
    {Op::Lhu, "lhu", Fmt::IMem, kOpLoad, 5, 0, 0},
    {Op::Sb, "sb", Fmt::S, kOpStore, 0, 0, 0},
    {Op::Sh, "sh", Fmt::S, kOpStore, 1, 0, 0},
    {Op::Sw, "sw", Fmt::S, kOpStore, 2, 0, 0},
    {Op::Addi, "addi", Fmt::I, kOpImm, 0, 0, 0},
    {Op::Slti, "slti", Fmt::I, kOpImm, 2, 0, 0},
    {Op::Sltiu, "sltiu", Fmt::I, kOpImm, 3, 0, 0},
    {Op::Xori, "xori", Fmt::I, kOpImm, 4, 0, 0},
    {Op::Ori, "ori", Fmt::I, kOpImm, 6, 0, 0},
    {Op::Andi, "andi", Fmt::I, kOpImm, 7, 0, 0},
    {Op::Slli, "slli", Fmt::IShift, kOpImm, 1, 0x00, 0},
    {Op::Srli, "srli", Fmt::IShift, kOpImm, 5, 0x00, 0},
    {Op::Srai, "srai", Fmt::IShift, kOpImm, 5, 0x20, 0},
    {Op::Add, "add", Fmt::R, kOpReg, 0, 0x00, 0},
    {Op::Sub, "sub", Fmt::R, kOpReg, 0, 0x20, 0},
    {Op::Sll, "sll", Fmt::R, kOpReg, 1, 0x00, 0},
    {Op::Slt, "slt", Fmt::R, kOpReg, 2, 0x00, 0},
    {Op::Sltu, "sltu", Fmt::R, kOpReg, 3, 0x00, 0},
    {Op::Xor, "xor", Fmt::R, kOpReg, 4, 0x00, 0},
    {Op::Srl, "srl", Fmt::R, kOpReg, 5, 0x00, 0},
    {Op::Sra, "sra", Fmt::R, kOpReg, 5, 0x20, 0},
    {Op::Or, "or", Fmt::R, kOpReg, 6, 0x00, 0},
    {Op::And, "and", Fmt::R, kOpReg, 7, 0x00, 0},
    {Op::Ecall, "ecall", Fmt::Fixed, kOpSystem, 0, 0x00, 0},
    {Op::Ebreak, "ebreak", Fmt::Fixed, kOpSystem, 0, 0x00, 1},
    {Op::Mret, "mret", Fmt::Fixed, kOpSystem, 0, 0x18, 2},
    {Op::Csrrw, "csrrw", Fmt::Csr, kOpSystem, 1, 0, 0},
    {Op::Csrrs, "csrrs", Fmt::Csr, kOpSystem, 2, 0, 0},
    {Op::Csrrc, "csrrc", Fmt::Csr, kOpSystem, 3, 0, 0},
    {Op::Csrrwi, "csrrwi", Fmt::CsrI, kOpSystem, 5, 0, 0},
    {Op::Csrrsi, "csrrsi", Fmt::CsrI, kOpSystem, 6, 0, 0},
    {Op::Csrrci, "csrrci", Fmt::CsrI, kOpSystem, 7, 0, 0},
    {Op::Mul, "mul", Fmt::R, kOpReg, 0, 0x01, 0},
    {Op::Mulh, "mulh", Fmt::R, kOpReg, 1, 0x01, 0},
    {Op::Mulhsu, "mulhsu", Fmt::R, kOpReg, 2, 0x01, 0},
    {Op::Mulhu, "mulhu", Fmt::R, kOpReg, 3, 0x01, 0},
    {Op::Div, "div", Fmt::R, kOpReg, 4, 0x01, 0},
    {Op::Divu, "divu", Fmt::R, kOpReg, 5, 0x01, 0},
    {Op::Rem, "rem", Fmt::R, kOpReg, 6, 0x01, 0},
    {Op::Remu, "remu", Fmt::R, kOpReg, 7, 0x01, 0},
    {Op::Clc, "clc", Fmt::IMem, kOpLoad, 3, 0, 0},
    {Op::Csc, "csc", Fmt::S, kOpStore, 3, 0, 0},
    {Op::CGetPerm, "cgetperm", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x00},
    {Op::CGetType, "cgettype", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x01},
    {Op::CGetBase, "cgetbase", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x02},
    {Op::CGetLen, "cgetlen", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x03},
    {Op::CGetTop, "cgettop", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x18},
    {Op::CGetTag, "cgettag", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x04},
    {Op::CGetAddr, "cgetaddr", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x0f},
    {Op::CSeal, "cseal", Fmt::R, kOpCheri, 0, 0x0b, 0},
    {Op::CUnseal, "cunseal", Fmt::R, kOpCheri, 0, 0x0c, 0},
    {Op::CAndPerm, "candperm", Fmt::R, kOpCheri, 0, 0x0d, 0},
    {Op::CSetAddr, "csetaddr", Fmt::R, kOpCheri, 0, 0x10, 0},
    {Op::CIncAddr, "cincaddr", Fmt::R, kOpCheri, 0, 0x11, 0},
    {Op::CIncAddrImm, "cincaddrimm", Fmt::I, kOpCheri, 1, 0, 0},
    {Op::CSetBounds, "csetbounds", Fmt::R, kOpCheri, 0, 0x08, 0},
    {Op::CSetBoundsExact, "csetboundsexact", Fmt::R, kOpCheri, 0, 0x09, 0},
    {Op::CSetBoundsImm, "csetboundsimm", Fmt::IU, kOpCheri, 2, 0, 0},
    {Op::CTestSubset, "ctestsubset", Fmt::R, kOpCheri, 0, 0x20, 0},
    {Op::CSetEqualExact, "csetequalexact", Fmt::R, kOpCheri, 0, 0x21, 0},
    {Op::CMove, "cmove", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x0a},
    {Op::CClearTag, "ccleartag", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x0b},
    {Op::CRrl, "crrl", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x08},
    {Op::CRam, "cram", Fmt::TwoOp, kOpCheri, 0, 0x7f, 0x09},
    {Op::CSealEntry, "csealentry", Fmt::SealE, kOpCheri, 0, 0x12, 0},
    {Op::CSpecialRw, "cspecialrw", Fmt::ScrRw, kOpCheri, 0, 0x01, 0},
};

constexpr bool
rowsFollowOpOrder()
{
    for (size_t i = 0; i < std::size(kOps); ++i) {
        if (static_cast<size_t>(kOps[i].op) != i + 1) {
            return false;
        }
    }
    return std::size(kOps) == kOpCount - 1;
}
static_assert(rowsFollowOpOrder(), "kOps must hold one row per Op, in order");

/** The word's fixed part: opcode and the function fields its format
 * carries. The whole word for Fmt::Fixed. */
constexpr uint32_t
opBits(const OpInfo &info)
{
    const FmtFields &fields = fieldsOf(info.fmt);
    return info.opcode | (fields.f3 ? uint32_t{info.f3} << 12 : 0) |
           (fields.f7 ? uint32_t{info.f7} << 25 : 0) |
           (fields.sub ? uint32_t{info.sub} << 20 : 0);
}

void
checkReg(uint8_t reg, const char *what)
{
    if (reg >= kNumRegs) {
        panic("encode: %s register %u out of range (RV32E has 16)", what,
              reg);
    }
}

} // namespace

const OpInfo &
infoFor(Op op)
{
    const size_t index = static_cast<size_t>(op);
    if (index == 0 || index >= kOpCount) {
        panic("isa: no instruction-table row for op %zu", index);
    }
    return kOps[index - 1];
}

const OpInfo *
infoNamed(std::string_view name)
{
    for (const OpInfo &info : kOps) {
        if (name == info.name) {
            return &info;
        }
    }
    return nullptr;
}

bool
operandsFit(const OpInfo &info, const Inst &inst)
{
    const int32_t imm = inst.imm;
    auto within = [imm](int32_t lo, int32_t hi) {
        return imm >= lo && imm <= hi;
    };
    switch (info.fmt) {
      case Fmt::I: case Fmt::IMem: case Fmt::S: return within(-2048, 2047);
      case Fmt::IU: return within(0, 0xfff);
      case Fmt::IShift: case Fmt::ScrRw: return within(0, 31);
      case Fmt::SealE: return within(0, kMaxPosture);
      case Fmt::B: return within(-4096, 4094) && imm % 2 == 0;
      case Fmt::J: return within(-(1 << 20), (1 << 20) - 2) && imm % 2 == 0;
      case Fmt::U: return (imm & 0xfff) == 0;
      case Fmt::Csr: return inst.csr <= 0xfff;
      case Fmt::CsrI: return inst.csr <= 0xfff && within(0, 31);
      case Fmt::R: case Fmt::Fixed: case Fmt::TwoOp: return true;
    }
    return false;
}

uint32_t
encode(const Inst &inst)
{
    const OpInfo &info = infoFor(inst.op);
    checkReg(inst.rd, "rd");
    checkReg(inst.rs1, "rs1");
    checkReg(inst.rs2, "rs2");
    if (!operandsFit(info, inst)) {
        panic("encode: %s operand out of range (imm %d, csr 0x%x)",
              info.name, inst.imm, inst.csr);
    }

    const FmtFields &fields = fieldsOf(info.fmt);
    const uint32_t imm = static_cast<uint32_t>(inst.imm);
    uint32_t word = opBits(info);
    word |= fields.rd ? uint32_t{inst.rd} << 7 : 0;
    word |= fields.rs1 ? uint32_t{inst.rs1} << 15 : 0;
    word |= fields.rs2 ? uint32_t{inst.rs2} << 20 : 0;
    switch (info.fmt) {
      case Fmt::I:
      case Fmt::IMem:
      case Fmt::IU:
        return word | (imm & 0xfff) << 20;
      case Fmt::IShift:
      case Fmt::ScrRw:
      case Fmt::SealE:
        return word | imm << 20;
      case Fmt::S:
        return word | (bits(imm, 5u, 7u) << 25) | (bits(imm, 0u, 5u) << 7);
      case Fmt::B:
        return word | (bits(imm, 12u, 1u) << 31) | (bits(imm, 5u, 6u) << 25) |
               (bits(imm, 1u, 4u) << 8) | (bits(imm, 11u, 1u) << 7);
      case Fmt::U:
        return word | (imm & 0xfffff000u);
      case Fmt::J:
        return word | (bits(imm, 20u, 1u) << 31) | (bits(imm, 1u, 10u) << 21) |
               (bits(imm, 11u, 1u) << 20) | (bits(imm, 12u, 8u) << 12);
      case Fmt::Csr:
        return word | uint32_t{inst.csr} << 20;
      case Fmt::CsrI:
        return word | uint32_t{inst.csr} << 20 | imm << 15;
      case Fmt::R:
      case Fmt::Fixed:
      case Fmt::TwoOp:
        return word;
    }
    panic("encode: unhandled format");
}

Inst
decode(uint32_t word, DecodeError *error)
{
    const uint32_t opcode = bits(word, 0u, 7u);
    const uint32_t f3 = bits(word, 12u, 3u);
    const uint32_t f7 = bits(word, 25u, 7u);
    const uint32_t rd = bits(word, 7u, 5u);
    const uint32_t rs1 = bits(word, 15u, 5u);
    const uint32_t slot = bits(word, 20u, 5u); // rs2, or a selector
    auto fail = [&](DecodeErrorKind kind, const char *field, uint32_t value) {
        if (error != nullptr) {
            *error = {kind, static_cast<uint8_t>(opcode), field, value};
        }
        return Inst{};
    };
    if (error != nullptr) {
        *error = DecodeError{};
    }

    // Steps 1-5: find the row whose opcode, fixed word, funct3,
    // funct7 and sub-op or posture all match, noting the furthest
    // step any row got to.
    const OpInfo *info = nullptr;
    bool opcodeSeen = false, fixedSlot = false, f3Seen = false,
         f7Seen = false;
    const char *subField = "subop";
    for (const OpInfo &row : kOps) {
        if (row.opcode != opcode) {
            continue;
        }
        opcodeSeen = true;
        const FmtFields &fields = fieldsOf(row.fmt);
        if (row.fmt == Fmt::Fixed) {
            if (word == opBits(row)) {
                info = &row;
                break;
            }
            fixedSlot = fixedSlot || f3 == row.f3;
            continue;
        }
        if (fields.f3 && row.f3 != f3) {
            continue;
        }
        f3Seen = true;
        if (fields.f7 && row.f7 != f7) {
            continue;
        }
        f7Seen = true;
        subField = row.fmt == Fmt::SealE ? "posture" : "subop";
        if (fields.sub ? slot != row.sub
                       : row.fmt == Fmt::SealE && slot > kMaxPosture) {
            continue;
        }
        info = &row;
        break;
    }
    if (info == nullptr) {
        if (!opcodeSeen) {
            return fail(DecodeErrorKind::UnknownMajorOpcode, "opcode",
                        opcode);
        }
        if (fixedSlot) {
            return fail(DecodeErrorKind::ReservedSystem, "funct12",
                        word >> 20);
        }
        if (!f3Seen) {
            return fail(DecodeErrorKind::ReservedFunct3, "funct3", f3);
        }
        if (!f7Seen) {
            return fail(DecodeErrorKind::ReservedFunct7, "funct7", f7);
        }
        return fail(DecodeErrorKind::ReservedSubOp, subField, slot);
    }

    // Step 6: RV32E has 16 registers.
    const FmtFields &fields = fieldsOf(info->fmt);
    if (fields.rd && rd >= kNumRegs) {
        return fail(DecodeErrorKind::RegisterOutOfRange, "rd", rd);
    }
    if (fields.rs1 && rs1 >= kNumRegs) {
        return fail(DecodeErrorKind::RegisterOutOfRange, "rs1", rs1);
    }
    if (fields.rs2 && slot >= kNumRegs) {
        return fail(DecodeErrorKind::RegisterOutOfRange, "rs2", slot);
    }

    // The operand fields, laid out as encode() wrote them; the fields
    // a format does not carry stay zero.
    Inst inst;
    inst.op = info->op;
    inst.rd = static_cast<uint8_t>(fields.rd ? rd : 0);
    inst.rs1 = static_cast<uint8_t>(fields.rs1 ? rs1 : 0);
    inst.rs2 = static_cast<uint8_t>(fields.rs2 ? slot : 0);
    switch (info->fmt) {
      case Fmt::I:
      case Fmt::IMem:
        inst.imm = signExtend32(word >> 20, 12);
        break;
      case Fmt::IU:
        inst.imm = static_cast<int32_t>(word >> 20);
        break;
      case Fmt::IShift:
      case Fmt::ScrRw:
      case Fmt::SealE:
        inst.imm = static_cast<int32_t>(slot);
        break;
      case Fmt::S:
        inst.imm = signExtend32(
            (bits(word, 25u, 7u) << 5) | bits(word, 7u, 5u), 12);
        break;
      case Fmt::B:
        inst.imm = signExtend32(
            (bits(word, 31u, 1u) << 12) | (bits(word, 7u, 1u) << 11) |
                (bits(word, 25u, 6u) << 5) | (bits(word, 8u, 4u) << 1),
            13);
        break;
      case Fmt::U:
        inst.imm = static_cast<int32_t>(word & 0xfffff000u);
        break;
      case Fmt::J:
        inst.imm = signExtend32(
            (bits(word, 31u, 1u) << 20) | (bits(word, 12u, 8u) << 12) |
                (bits(word, 20u, 1u) << 11) | (bits(word, 21u, 10u) << 1),
            21);
        break;
      case Fmt::Csr:
        inst.csr = static_cast<uint16_t>(word >> 20);
        break;
      case Fmt::CsrI:
        inst.csr = static_cast<uint16_t>(word >> 20);
        inst.imm = static_cast<int32_t>(rs1);
        break;
      case Fmt::R:
      case Fmt::Fixed:
      case Fmt::TwoOp:
        break;
    }
    return inst;
}

Inst
decode(uint32_t word)
{
    return decode(word, nullptr);
}

const char *
opName(Op op)
{
    if (op == Op::Illegal) {
        return "illegal";
    }
    const size_t index = static_cast<size_t>(op);
    return index < kOpCount ? kOps[index - 1].name : "?";
}

const char *
regName(uint8_t index)
{
    static const char *kNames[kNumRegs] = {
        "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
        "s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
    };
    return index < kNumRegs ? kNames[index] : "?";
}

const char *
decodeErrorKindName(DecodeErrorKind kind)
{
    switch (kind) {
      case DecodeErrorKind::None: return "none";
      case DecodeErrorKind::UnknownMajorOpcode: return "unknown-opcode";
      case DecodeErrorKind::ReservedFunct3: return "reserved-funct3";
      case DecodeErrorKind::ReservedFunct7: return "reserved-funct7";
      case DecodeErrorKind::ReservedSubOp: return "reserved-subop";
      case DecodeErrorKind::ReservedSystem: return "reserved-system";
      case DecodeErrorKind::RegisterOutOfRange:
        return "register-out-of-range";
    }
    return "?";
}

std::string
DecodeError::toString() const
{
    if (ok()) {
        return "ok";
    }
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  "%s: opcode=0x%02x %s=0x%x",
                  decodeErrorKindName(kind), opcode, field, value);
    return buffer;
}

namespace
{

constexpr std::array<OpSummary, kOpCount>
summarize()
{
    std::array<OpSummary, kOpCount> table{};
    for (const OpInfo &info : kOps) {
        const FmtFields &fields = fieldsOf(info.fmt);
        table[static_cast<size_t>(info.op)] = {
            info.op, fields.rs1, fields.rs2, fields.rd, fields.imm,
            info.fmt == Fmt::Csr || info.fmt == Fmt::CsrI};
    }
    return table;
}

} // namespace

constexpr std::array<OpSummary, kOpCount> kOpSummaries = summarize();

const std::vector<Op> &
allOps()
{
    static const auto kAll = [] {
        std::vector<Op> ops;
        for (const auto &info : kOps) {
            ops.push_back(info.op);
        }
        return ops;
    }();
    return kAll;
}

} // namespace cheriot::isa
