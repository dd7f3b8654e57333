/**
 * @file
 * Textual assembly in both directions: disassemble() renders one
 * instruction per line (ABI register names, absolute branch/jump
 * targets), and parseAssembly() accepts exactly that rendering, so
 * assemble -> encode -> decode -> disassemble -> reassemble round
 * trips are checkable across the whole instruction set. Both switch
 * on the op's encoding format.
 */

#include "isa/encoding.h"
#include "isa/op_table.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cheriot::isa
{

std::string
disassemble(const Inst &inst, uint32_t pc)
{
    if (inst.op == Op::Illegal) {
        return "illegal";
    }
    const OpInfo &info = infoFor(inst.op);
    const char *name = info.name;
    const char *rd = regName(inst.rd);
    const char *rs1 = regName(inst.rs1);
    const char *rs2 = regName(inst.rs2);
    const int32_t imm = inst.imm;
    char buffer[96];
    const size_t size = sizeof(buffer);
    switch (info.fmt) {
      case Fmt::R:
        std::snprintf(buffer, size, "%s %s, %s, %s", name, rd, rs1, rs2);
        break;
      case Fmt::I:
      case Fmt::IU:
      case Fmt::IShift:
        std::snprintf(buffer, size, "%s %s, %s, %d", name, rd, rs1, imm);
        break;
      case Fmt::IMem:
        std::snprintf(buffer, size, "%s %s, %d(%s)", name, rd, imm, rs1);
        break;
      case Fmt::S:
        std::snprintf(buffer, size, "%s %s, %d(%s)", name, rs2, imm, rs1);
        break;
      case Fmt::B:
        std::snprintf(buffer, size, "%s %s, %s, 0x%x", name, rs1, rs2,
                      pc + imm);
        break;
      case Fmt::U:
        std::snprintf(buffer, size, "%s %s, 0x%x", name, rd,
                      static_cast<uint32_t>(imm) >> 12);
        break;
      case Fmt::J:
        std::snprintf(buffer, size, "%s %s, 0x%x", name, rd, pc + imm);
        break;
      case Fmt::Fixed:
        std::snprintf(buffer, size, "%s", name);
        break;
      case Fmt::Csr:
        std::snprintf(buffer, size, "%s %s, 0x%x, %s", name, rd, inst.csr,
                      rs1);
        break;
      case Fmt::CsrI:
        std::snprintf(buffer, size, "%s %s, 0x%x, %d", name, rd, inst.csr,
                      imm);
        break;
      case Fmt::TwoOp:
        std::snprintf(buffer, size, "%s %s, %s", name, rd, rs1);
        break;
      case Fmt::ScrRw:
        std::snprintf(buffer, size, "%s %s, scr%d, %s", name, rd, imm, rs1);
        break;
      case Fmt::SealE:
        std::snprintf(buffer, size, "%s %s, %s, posture=%d", name, rd, rs1,
                      imm);
        break;
    }
    return buffer;
}

namespace
{

/**
 * The mnemonic and operand texts of a line, split at spaces, commas
 * and parentheses. The split is loose on purpose: parseAssembly()
 * refuses any spacing, punctuation or radix that disassemble() would
 * not print.
 */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens(1);
    for (const char c : line) {
        if (std::strchr(" ,()", c) == nullptr) {
            tokens.back() += c;
        } else if (!tokens.back().empty()) {
            tokens.emplace_back();
        }
    }
    if (tokens.back().empty()) {
        tokens.pop_back();
    }
    return tokens;
}

/**
 * Reads operand texts in order. Each reader fails only on a missing
 * operand or on text that is not a number or a register name; a value
 * that does not fit its field prints differently and is refused by
 * parseAssembly()'s round trip.
 */
class Operands
{
  public:
    /** @p texts[0] is the mnemonic. */
    explicit Operands(const std::vector<std::string> &texts) : texts_(texts)
    {}

    bool reg(uint8_t &out)
    {
        if (next_ == texts_.size()) {
            return false;
        }
        for (uint8_t i = 0; i < kNumRegs; ++i) {
            if (texts_[next_] == regName(i)) {
                out = i;
                ++next_;
                return true;
            }
        }
        return false;
    }

    /** A "%d" immediate, after @p prefix ("scr", "posture="). */
    bool imm(int32_t &out, const char *prefix = "")
    {
        int64_t value = 0;
        if (!number(prefix, value)) {
            return false;
        }
        out = static_cast<int32_t>(value);
        return true;
    }

    /** An absolute "0x%x" branch or jump target, as an offset from pc. */
    bool target(uint32_t pc, int32_t &out)
    {
        int64_t value = 0;
        if (!number("", value)) {
            return false;
        }
        out = static_cast<int32_t>(static_cast<uint32_t>(value) - pc);
        return true;
    }

    /** An upper immediate, printed as its top 20 bits. */
    bool upper(int32_t &out)
    {
        int64_t value = 0;
        if (!number("", value)) {
            return false;
        }
        out = static_cast<int32_t>(static_cast<uint32_t>(value) << 12);
        return true;
    }

    bool csr(uint16_t &out)
    {
        int64_t value = 0;
        if (!number("", value)) {
            return false;
        }
        out = static_cast<uint16_t>(value);
        return true;
    }

  private:
    bool number(const char *prefix, int64_t &out)
    {
        if (next_ == texts_.size()) {
            return false;
        }
        const std::string &text = texts_[next_];
        const size_t skip = std::strlen(prefix);
        if (text.compare(0, skip, prefix) != 0 || text.size() == skip) {
            return false;
        }
        char *end = nullptr;
        out = std::strtoll(text.c_str() + skip, &end, 0);
        if (*end != '\0') {
            return false;
        }
        ++next_;
        return true;
    }

    const std::vector<std::string> &texts_;
    size_t next_ = 1;
};

} // namespace

std::optional<Inst>
parseAssembly(const std::string &text, uint32_t pc)
{
    const std::vector<std::string> tokens = tokenize(text);
    const OpInfo *info = tokens.empty() ? nullptr : infoNamed(tokens[0]);
    if (info == nullptr) {
        // The one line that names no op.
        return text == disassemble(Inst{}) ? std::optional<Inst>(Inst{})
                                           : std::nullopt;
    }
    Operands in(tokens);
    Inst inst;
    inst.op = info->op;
    bool ok = false;
    switch (info->fmt) {
      case Fmt::R:
        ok = in.reg(inst.rd) && in.reg(inst.rs1) && in.reg(inst.rs2);
        break;
      case Fmt::I:
      case Fmt::IU:
      case Fmt::IShift:
        ok = in.reg(inst.rd) && in.reg(inst.rs1) && in.imm(inst.imm);
        break;
      case Fmt::IMem:
        ok = in.reg(inst.rd) && in.imm(inst.imm) && in.reg(inst.rs1);
        break;
      case Fmt::S:
        ok = in.reg(inst.rs2) && in.imm(inst.imm) && in.reg(inst.rs1);
        break;
      case Fmt::B:
        ok = in.reg(inst.rs1) && in.reg(inst.rs2) &&
             in.target(pc, inst.imm);
        break;
      case Fmt::U:
        ok = in.reg(inst.rd) && in.upper(inst.imm);
        break;
      case Fmt::J:
        ok = in.reg(inst.rd) && in.target(pc, inst.imm);
        break;
      case Fmt::Fixed:
        ok = true;
        break;
      case Fmt::Csr:
        ok = in.reg(inst.rd) && in.csr(inst.csr) && in.reg(inst.rs1);
        break;
      case Fmt::CsrI:
        ok = in.reg(inst.rd) && in.csr(inst.csr) && in.imm(inst.imm);
        break;
      case Fmt::TwoOp:
        ok = in.reg(inst.rd) && in.reg(inst.rs1);
        break;
      case Fmt::ScrRw:
        ok = in.reg(inst.rd) && in.imm(inst.imm, "scr") &&
             in.reg(inst.rs1);
        break;
      case Fmt::SealE:
        ok = in.reg(inst.rd) && in.reg(inst.rs1) &&
             in.imm(inst.imm, "posture=");
        break;
    }
    // The line must be the disassembler's own rendering, byte for
    // byte: that refuses a leftover operand, other spacing or
    // punctuation, another radix and a value its field would wrap.
    if (!ok || !operandsFit(*info, inst) || disassemble(inst, pc) != text) {
        return std::nullopt;
    }
    return inst;
}

} // namespace cheriot::isa
