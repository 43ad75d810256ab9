/**
 * @file
 * Tests for the text assembler and the ProgramBuilder API.
 */

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "asm/program_builder.h"
#include "isa/disasm.h"

namespace lba::assembler {
namespace {

using isa::Instruction;
using isa::Opcode;

TEST(Assembler, EmptySourceIsEmptyProgram)
{
    auto r = assemble("");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.program.empty());
}

TEST(Assembler, CommentsAndBlankLines)
{
    auto r = assemble("; a comment\n   \n# another\n  nop\n");
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.program.size(), 1u);
    EXPECT_EQ(r.program[0].op, Opcode::kNop);
}

TEST(Assembler, BasicInstructions)
{
    auto r = assemble(R"(
        li r1, 100
        addi r1, r1, -1
        add r3, r1, r2
        mov r4, r3
        ld r5, 8(r4)
        sd r5, 0(r4)
        syscall 1
        halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.program.size(), 8u);
    EXPECT_EQ(r.program[0].op, Opcode::kLi);
    EXPECT_EQ(r.program[0].imm, 100);
    EXPECT_EQ(r.program[1].imm, -1);
    EXPECT_EQ(r.program[4].op, Opcode::kLd);
    EXPECT_EQ(r.program[4].rs1, 4);
    EXPECT_EQ(r.program[4].imm, 8);
    EXPECT_EQ(r.program[5].op, Opcode::kSd);
    EXPECT_EQ(r.program[5].rs2, 5);
}

TEST(Assembler, RegisterAliases)
{
    auto r = assemble("mov sp, lr\nmov at, r0\n");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.program[0].rd, isa::kRegSp);
    EXPECT_EQ(r.program[0].rs1, isa::kRegLr);
    EXPECT_EQ(r.program[1].rd, isa::kRegAt);
}

TEST(Assembler, LabelsResolveBackward)
{
    auto r = assemble(R"(
        li r1, 10
    loop:
        addi r1, r1, -1
        bne r1, r0, loop
        halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    // bne at index 2, loop at index 1 -> offset (1-2)*8 = -8.
    EXPECT_EQ(r.program[2].imm, -8);
}

TEST(Assembler, LabelsResolveForward)
{
    auto r = assemble(R"(
        beq r0, r0, done
        nop
        nop
    done:
        halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.program[0].imm, 24); // (3-0)*8
}

TEST(Assembler, LabelOnSameLineAsInstruction)
{
    auto r = assemble("start: nop\n jmp start\n");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.program[1].imm, -8);
}

TEST(Assembler, HexImmediates)
{
    auto r = assemble("li r1, 0x10\nli r2, -0x8\n");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.program[0].imm, 16);
    EXPECT_EQ(r.program[1].imm, -8);
}

TEST(Assembler, ErrorUnknownMnemonic)
{
    auto r = assemble("nop\nbogus r1\n");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error_line, 2);
}

TEST(Assembler, ErrorUnknownLabel)
{
    auto r = assemble("jmp nowhere\n");
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("nowhere"), std::string::npos);
}

TEST(Assembler, ErrorDuplicateLabel)
{
    auto r = assemble("a:\nnop\na:\nnop\n");
    EXPECT_FALSE(r.ok());
}

TEST(Assembler, ErrorBadOperandCount)
{
    EXPECT_FALSE(assemble("add r1, r2\n").ok());
    EXPECT_FALSE(assemble("li r1\n").ok());
    EXPECT_FALSE(assemble("halt r1\n").ok());
}

TEST(Assembler, ErrorBadRegister)
{
    EXPECT_FALSE(assemble("mov r32, r0\n").ok());
    EXPECT_FALSE(assemble("mov rx, r0\n").ok());
}

TEST(Assembler, MemoryOperandWithoutOffsetMeansZero)
{
    auto r = assemble("ld r3, (r2)\nsd r3, (r4)\n");
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.program[0].imm, 0);
    EXPECT_EQ(r.program[0].rs1, 2);
    EXPECT_EQ(r.program[1].imm, 0);
    EXPECT_EQ(r.program[1].rs1, 4);
    EXPECT_FALSE(assemble("ld r3, x(r2)\n").ok());
}

TEST(Assembler, DisassemblerOutputReassembles)
{
    auto r = assemble(R"(
        li r1, 5
        add r2, r1, r1
        ld r3, 16(r2)
        sd r3, -8(r2)
        beq r1, r2, 8
        jr r3
        callr r2
        ret
        syscall 4
        halt
    )");
    ASSERT_TRUE(r.ok()) << r.error;
    std::string round;
    for (const auto& instr : r.program) {
        round += isa::disassemble(instr) + "\n";
    }
    auto r2 = assemble(round);
    ASSERT_TRUE(r2.ok()) << r2.error;
    EXPECT_EQ(r2.program, r.program);
}

TEST(ProgramBuilder, EmitsAndResolvesLabels)
{
    ProgramBuilder b;
    Label loop = b.newLabel();
    b.li(1, 3);
    b.bind(loop);
    b.alui(Opcode::kAddi, 1, 1, -1);
    b.branch(Opcode::kBne, 1, 0, loop);
    b.halt();
    std::string error;
    auto program = b.build(0x1000, &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_EQ(program.size(), 4u);
    EXPECT_EQ(program[2].imm, -8);
}

TEST(ProgramBuilder, UnboundLabelFailsBuild)
{
    ProgramBuilder b;
    Label never = b.newLabel();
    b.jmp(never);
    std::string error;
    auto program = b.build(0x1000, &error);
    EXPECT_TRUE(program.empty());
    EXPECT_FALSE(error.empty());
}

TEST(ProgramBuilder, Li64SmallValueIsOneInstruction)
{
    ProgramBuilder b;
    b.li64(1, 100);
    EXPECT_EQ(b.size(), 1u);
    b.li64(2, 0xffffffff00000000ull); // needs lih
    EXPECT_EQ(b.size(), 3u);
}

TEST(ProgramBuilder, LiLabelMaterializesAbsoluteAddress)
{
    ProgramBuilder b;
    Label target = b.newLabel();
    b.liLabel(1, target);
    b.halt();
    b.bind(target);
    b.nop();
    std::string error;
    auto program = b.build(0x10000, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(program[0].imm, 0x10000 + 2 * 8);
}

} // namespace
} // namespace lba::assembler
