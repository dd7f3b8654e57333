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

#include <cctype>
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

std::string
trim(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
                              text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
                              text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

/** Split a line into the mnemonic and comma-separated operand texts,
 * unwrapping the "imm(reg)" memory-operand form into two fields. */
struct Tokens
{
    std::string mnemonic;
    std::vector<std::string> operands;
};

std::optional<Tokens>
tokenize(const std::string &line)
{
    const std::string text = trim(line);
    if (text.empty()) {
        return std::nullopt;
    }
    Tokens tokens;
    size_t pos = 0;
    while (pos < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[pos]))) {
        ++pos;
    }
    tokens.mnemonic = text.substr(0, pos);
    std::string rest = trim(text.substr(pos));
    if (rest.empty()) {
        return tokens;
    }
    size_t start = 0;
    while (start <= rest.size()) {
        size_t comma = rest.find(',', start);
        std::string field = trim(
            comma == std::string::npos ? rest.substr(start)
                                       : rest.substr(start, comma - start));
        // "imm(reg)" splits into the immediate and the register.
        const size_t open = field.find('(');
        if (open != std::string::npos && field.back() == ')') {
            tokens.operands.push_back(trim(field.substr(0, open)));
            tokens.operands.push_back(trim(
                field.substr(open + 1, field.size() - open - 2)));
        } else if (!field.empty()) {
            tokens.operands.push_back(field);
        }
        if (comma == std::string::npos) {
            break;
        }
        start = comma + 1;
    }
    return tokens;
}

/**
 * Reads operand texts in order. Each reader fails on a missing
 * operand or on one the disassembler's conversion cannot print: a
 * "%d" field must fit int32_t, a "0x%x" target uint32_t, a CSR number
 * uint16_t and an upper immediate its 20 bits. The format's own range
 * is operandsFit()'s.
 */
class Operands
{
  public:
    explicit Operands(const std::vector<std::string> &texts) : texts_(texts)
    {}

    bool done() const { return next_ == texts_.size(); }

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
        if (!number(prefix, INT32_MIN, INT32_MAX, value)) {
            return false;
        }
        out = static_cast<int32_t>(value);
        return true;
    }

    /** An absolute "0x%x" branch or jump target, as an offset from pc. */
    bool target(uint32_t pc, int32_t &out)
    {
        int64_t value = 0;
        if (!number("", 0, UINT32_MAX, value)) {
            return false;
        }
        out = static_cast<int32_t>(static_cast<uint32_t>(value) - pc);
        return true;
    }

    /** An upper immediate, printed as its top 20 bits. */
    bool upper(int32_t &out)
    {
        int64_t value = 0;
        if (!number("", 0, 0xfffff, value)) {
            return false;
        }
        out = static_cast<int32_t>(static_cast<uint32_t>(value) << 12);
        return true;
    }

    bool csr(uint16_t &out)
    {
        int64_t value = 0;
        if (!number("", 0, UINT16_MAX, value)) {
            return false;
        }
        out = static_cast<uint16_t>(value);
        return true;
    }

  private:
    bool number(const char *prefix, int64_t lo, int64_t hi, int64_t &out)
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
        const long long value = std::strtoll(text.c_str() + skip, &end, 0);
        if (*end != '\0' || value < lo || value > hi) {
            return false;
        }
        out = value;
        ++next_;
        return true;
    }

    const std::vector<std::string> &texts_;
    size_t next_ = 0;
};

} // namespace

std::optional<Inst>
parseAssembly(const std::string &text, uint32_t pc)
{
    const auto tokens = tokenize(text);
    if (!tokens) {
        return std::nullopt;
    }
    Operands in(tokens->operands);
    if (tokens->mnemonic == "illegal") {
        return in.done() ? std::optional<Inst>(Inst{}) : std::nullopt;
    }
    const OpInfo *info = infoNamed(tokens->mnemonic);
    if (info == nullptr) {
        return std::nullopt;
    }
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
    if (!ok || !in.done() || !operandsFit(*info, inst)) {
        return std::nullopt;
    }
    return inst;
}

} // namespace cheriot::isa
