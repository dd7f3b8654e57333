/**
 * @file
 * Whole-ISA round-trip fuzzing: for every operation the core
 * implements, seeded pseudo-random operands must survive
 * encode -> decode, disassemble -> parseAssembly -> encode, and every
 * decodable word must be a fixed point of encode(decode(word)).
 * Any asymmetry between the three representations (binary, Inst,
 * text) is a toolchain bug: the verifier, the tracer and the
 * executor all assume they agree.
 */

#include "isa/encoding.h"

#include <gtest/gtest.h>

#include <set>

namespace cheriot::isa
{
namespace
{

/** Deterministic stream (splitmix64, the repo-wide fuzzing idiom). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed ^ 0x9e3779b97f4a7c15ull) {}

    uint64_t next()
    {
        state_ += 0x9e3779b97f4a7c15ull;
        uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint32_t below(uint32_t bound)
    {
        return bound == 0 ? 0 : static_cast<uint32_t>(next() % bound);
    }

  private:
    uint64_t state_;
};

/** A random well-formed instance of @p op, driven entirely by the
 * OpSummary metadata (no per-op special cases beyond the immediate
 * shape — that is the point of the metadata). */
Inst
randomInst(Op op, Rng &rng)
{
    const OpSummary &summary = summaryOf(op);
    Inst inst;
    inst.op = op;
    inst.rd = summary.writesRd ? static_cast<uint8_t>(rng.below(kNumRegs))
                               : 0;
    inst.rs1 = summary.readsRs1
                   ? static_cast<uint8_t>(rng.below(kNumRegs))
                   : 0;
    inst.rs2 = summary.readsRs2
                   ? static_cast<uint8_t>(rng.below(kNumRegs))
                   : 0;
    switch (summary.immKind) {
    case ImmKind::None:
        break;
    case ImmKind::I12:
    case ImmKind::S12:
        inst.imm = static_cast<int32_t>(rng.below(4096)) - 2048;
        break;
    case ImmKind::U12:
        inst.imm = static_cast<int32_t>(rng.below(4096));
        break;
    case ImmKind::B13:
        inst.imm = (static_cast<int32_t>(rng.below(4096)) - 2048) * 2;
        break;
    case ImmKind::U20:
        inst.imm =
            static_cast<int32_t>(rng.below(1u << 20) << 12);
        break;
    case ImmKind::J21:
        inst.imm =
            (static_cast<int32_t>(rng.below(1u << 20)) - (1 << 19)) * 2;
        break;
    case ImmKind::Shamt:
    case ImmKind::Csr5:
        inst.imm = static_cast<int32_t>(rng.below(32));
        break;
    case ImmKind::Scr:
        inst.imm = static_cast<int32_t>(rng.below(32));
        break;
    case ImmKind::Posture:
        inst.imm = static_cast<int32_t>(rng.below(3));
        break;
    }
    if (summary.usesCsr) {
        inst.csr = static_cast<uint16_t>(rng.below(4096));
    }
    return inst;
}

constexpr int kTrialsPerOp = 64;

TEST(RoundTripFuzz, AllOpsEnumerationIsSane)
{
    std::set<Op> seen;
    for (const Op op : allOps()) {
        EXPECT_NE(op, Op::Illegal);
        EXPECT_TRUE(seen.insert(op).second)
            << "duplicate op " << opName(op);
        EXPECT_EQ(summaryOf(op).op, op) << opName(op);
    }
    // Every enum value except Illegal is enumerated.
    EXPECT_EQ(seen.size(),
              static_cast<size_t>(Op::CSpecialRw));
}

TEST(RoundTripFuzz, EncodeDecodeIdentity)
{
    Rng rng(0x1badb002);
    for (const Op op : allOps()) {
        for (int trial = 0; trial < kTrialsPerOp; ++trial) {
            const Inst inst = randomInst(op, rng);
            const uint32_t word = encode(inst);
            DecodeError error;
            const Inst back = decode(word, &error);
            EXPECT_TRUE(error.ok())
                << opName(op) << ": " << error.toString();
            EXPECT_EQ(back, inst)
                << opName(op) << " word " << std::hex << word << ": "
                << disassemble(inst) << " != " << disassemble(back);
        }
    }
}

TEST(RoundTripFuzz, DisassembleParseIdentity)
{
    Rng rng(0xfeedc0de);
    // A PC in SRAM so absolute branch/jump targets are well-formed.
    const uint32_t pc = 0x20001000;
    for (const Op op : allOps()) {
        for (int trial = 0; trial < kTrialsPerOp; ++trial) {
            const Inst inst = randomInst(op, rng);
            const std::string text = disassemble(inst, pc);
            const auto parsed = parseAssembly(text, pc);
            ASSERT_TRUE(parsed.has_value())
                << opName(op) << ": unparseable \"" << text << "\"";
            EXPECT_EQ(*parsed, inst)
                << opName(op) << ": \"" << text << "\" reparsed as \""
                << disassemble(*parsed, pc) << "\"";
            // Closing the triangle: the reparse must re-encode to the
            // same word.
            EXPECT_EQ(encode(*parsed), encode(inst)) << text;
        }
    }
}

TEST(RoundTripFuzz, RandomWordFixedPoint)
{
    Rng rng(0x5eed5eed);
    uint64_t decodable = 0;
    for (int trial = 0; trial < 200000; ++trial) {
        const uint32_t word = static_cast<uint32_t>(rng.next());
        DecodeError error;
        const Inst inst = decode(word, &error);
        // The typed diagnosis exists exactly when decode fails.
        EXPECT_EQ(inst.op == Op::Illegal, !error.ok())
            << std::hex << word;
        if (inst.op == Op::Illegal) {
            continue;
        }
        ++decodable;
        EXPECT_EQ(encode(inst), word)
            << std::hex << word << " -> " << disassemble(inst)
            << " re-encodes differently";
    }
    // The encoding is dense enough that a meaningful fraction of
    // random words decode; guard against a decoder that rejects
    // everything (which would pass the loop vacuously).
    EXPECT_GT(decodable, 1000u);
}

TEST(RoundTripFuzz, EncodedWordsDisassembleUniquely)
{
    // Two distinct well-formed instructions never encode to the same
    // word (the decoder is a function, so this is implied by
    // EncodeDecodeIdentity — but check directly on a sample to catch
    // table typos where two ops share an encoding row).
    Rng rng(0xc0ffee);
    std::set<uint32_t> words;
    for (const Op op : allOps()) {
        Inst inst = randomInst(op, rng);
        // Pin operand fields so collisions can only come from the
        // opcode/funct selectors.
        inst.rd = summaryOf(op).writesRd ? 1 : 0;
        inst.rs1 = summaryOf(op).readsRs1 ? 2 : 0;
        inst.rs2 = summaryOf(op).readsRs2 ? 3 : 0;
        switch (summaryOf(op).immKind) {
        case ImmKind::B13:
        case ImmKind::J21:
            inst.imm = 8;
            break;
        case ImmKind::U20:
            inst.imm = 1 << 12;
            break;
        case ImmKind::Posture:
            inst.imm = 1;
            break;
        case ImmKind::None:
            inst.imm = 0;
            break;
        default:
            inst.imm = 1;
            break;
        }
        if (summaryOf(op).usesCsr) {
            inst.csr = 0x300;
        }
        const uint32_t word = encode(inst);
        EXPECT_TRUE(words.insert(word).second)
            << opName(op) << " collides at word " << std::hex << word;
    }
}

TEST(RoundTripFuzz, DecodeInvertsEncodeOverEveryFunctionField)
{
    // Every opcode x funct3 x funct7 x rs2-slot combination (2^22
    // words, rd = 1, rs1 = 2): decode either refuses the word or
    // returns the Inst that encodes back to it. The count pins the
    // set of accepted words, so a table edit that widens or narrows
    // it fails here.
    uint64_t decodable = 0;
    for (uint32_t fields = 0; fields < (1u << 22); ++fields) {
        const uint32_t opcode = fields & 0x7f;
        const uint32_t f3 = (fields >> 7) & 0x7;
        const uint32_t f7 = (fields >> 10) & 0x7f;
        const uint32_t slot = fields >> 17;
        const uint32_t word = (f7 << 25) | (slot << 20) | (2u << 15) |
                              (f3 << 12) | (1u << 7) | opcode;
        const Inst inst = decode(word);
        if (inst.op == Op::Illegal) {
            continue;
        }
        ++decodable;
        ASSERT_EQ(encode(inst), word)
            << std::hex << word << " -> " << disassemble(inst);
    }
    EXPECT_EQ(decodable, 205374u);
}

TEST(RoundTripFuzz, ParseRefusesOperandsEncodeCannotTake)
{
    // Text the disassembler never prints: operands outside their
    // format's range. Each would make encode panic or silently drop
    // bits, so the parser must refuse it.
    for (const char *text : {
             "addi a0, a0, 5000",
             "slli a0, a0, 40",
             "beq a0, a1, 0x3",
             "cspecialrw a0, scr40, a1",
             "csealentry a0, a1, posture=5",
             "csrrwi a0, 0x300, 99",
             "lui a0, 0x100000",
             "csrrw a0, 0x1000, a1",
             "lw a0, 4, sp",
             "addi a0, a0, 0x10",
             "addi a0, a0, 010",
             "csrrw a0, 768, a1",
             "add a0, a1, a2,",
             "add a0,a1,a2",
             "add  a0, a1, a2",
             "clc a0, 16 (sp)",
             "beq a0, a1, 8",
             "lui a0, 16",
         }) {
        EXPECT_EQ(parseAssembly(text, 0), std::nullopt) << text;
    }
    // The same forms at the edge of each range still parse.
    for (const char *text : {
             "addi a0, a0, -2048",
             "slli a0, a0, 31",
             "beq a0, a1, 0xffe",
             "cspecialrw a0, scr31, a1",
             "csealentry a0, a1, posture=2",
             "csrrwi a0, 0xfff, 31",
             "lui a0, 0xfffff",
             "csrrw a0, 0xfff, a1",
         }) {
        const auto inst = parseAssembly(text, 0);
        ASSERT_TRUE(inst.has_value()) << text;
        EXPECT_EQ(disassemble(*inst, 0), text);
    }
}

} // namespace
} // namespace cheriot::isa
