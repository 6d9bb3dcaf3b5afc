/**
 * @file
 * Unit tests for the ISA: opcode classification (the slicer's contract),
 * arithmetic semantics, the program builder, validation, and
 * disassembly.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "isa/builder.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace acr::isa
{
namespace
{

TEST(Opcode, ClassificationPartitionsTheSet)
{
    for (unsigned o = 0; o < static_cast<unsigned>(Opcode::kNumOpcodes);
         ++o) {
        Opcode op = static_cast<Opcode>(o);
        int classes = (isSliceable(op) ? 1 : 0) + (isMem(op) ? 1 : 0) +
                      (isBranch(op) ? 1 : 0) + (isBarrier(op) ? 1 : 0) +
                      (isHalt(op) ? 1 : 0);
        EXPECT_EQ(classes, 1) << "opcode " << opcodeName(op)
                              << " is in " << classes << " classes";
    }
}

TEST(Opcode, SliceableNeverTouchesMemoryOrControl)
{
    for (unsigned o = 0; o < static_cast<unsigned>(Opcode::kNumOpcodes);
         ++o) {
        Opcode op = static_cast<Opcode>(o);
        if (isSliceable(op)) {
            EXPECT_FALSE(isMem(op));
            EXPECT_FALSE(isBranch(op));
            EXPECT_TRUE(writesReg(op));
        }
    }
}

TEST(EvalArith, IntegerOps)
{
    EXPECT_EQ(evalArith(Opcode::kAdd, 3, 4, 0, 0), 7u);
    EXPECT_EQ(evalArith(Opcode::kSub, 3, 4, 0, 0), ~Word{0});
    EXPECT_EQ(evalArith(Opcode::kMul, 6, 7, 0, 0), 42u);
    EXPECT_EQ(evalArith(Opcode::kDivu, 42, 5, 0, 0), 8u);
    EXPECT_EQ(evalArith(Opcode::kDivu, 42, 0, 0, 0), 0u)
        << "division by zero is defined as 0";
    EXPECT_EQ(evalArith(Opcode::kRemu, 42, 5, 0, 0), 2u);
    EXPECT_EQ(evalArith(Opcode::kRemu, 42, 0, 0, 0), 42u)
        << "x % 0 is defined as x";
}

TEST(EvalArith, BitwiseAndShifts)
{
    EXPECT_EQ(evalArith(Opcode::kAnd, 0b1100, 0b1010, 0, 0), 0b1000u);
    EXPECT_EQ(evalArith(Opcode::kOr, 0b1100, 0b1010, 0, 0), 0b1110u);
    EXPECT_EQ(evalArith(Opcode::kXor, 0b1100, 0b1010, 0, 0), 0b0110u);
    EXPECT_EQ(evalArith(Opcode::kShl, 1, 65, 0, 0), 2u)
        << "shift amounts are mod 64";
    EXPECT_EQ(evalArith(Opcode::kShr, 0x8000000000000000ull, 63, 0, 0),
              1u);
    EXPECT_EQ(evalArith(Opcode::kSra, ~Word{0}, 5, 0, 0), ~Word{0})
        << "arithmetic shift keeps the sign";
}

TEST(EvalArith, Comparisons)
{
    EXPECT_EQ(evalArith(Opcode::kCmpEq, 5, 5, 0, 0), 1u);
    EXPECT_EQ(evalArith(Opcode::kCmpEq, 5, 6, 0, 0), 0u);
    EXPECT_EQ(evalArith(Opcode::kCmpLtu, 1, 2, 0, 0), 1u);
    // -1 unsigned is huge, signed is small.
    EXPECT_EQ(evalArith(Opcode::kCmpLtu, ~Word{0}, 1, 0, 0), 0u);
    EXPECT_EQ(evalArith(Opcode::kCmpLts, ~Word{0}, 1, 0, 0), 1u);
    EXPECT_EQ(evalArith(Opcode::kMin, 3, 9, 0, 0), 3u);
    EXPECT_EQ(evalArith(Opcode::kMax, 3, 9, 0, 0), 9u);
}

TEST(EvalArith, ImmediateForms)
{
    EXPECT_EQ(evalArith(Opcode::kAddi, 10, 0, -3, 0), 7u);
    EXPECT_EQ(evalArith(Opcode::kMuli, 10, 0, 5, 0), 50u);
    EXPECT_EQ(evalArith(Opcode::kMovi, 999, 999, -1, 0), ~Word{0});
    EXPECT_EQ(evalArith(Opcode::kTid, 0, 0, 0, 12), 12u);
    EXPECT_EQ(evalArith(Opcode::kShli, 3, 0, 2, 0), 12u);
    EXPECT_EQ(evalArith(Opcode::kShri, 12, 0, 2, 0), 3u);
}

TEST(Builder, ForwardAndBackwardLabels)
{
    ProgramBuilder b("labels");
    b.movi(1, 0);
    b.label("loop");
    b.addi(1, 1, 1);
    b.movi(2, 5);
    b.bltu(1, 2, "loop");
    b.jmp("end");
    b.movi(3, 111);  // skipped
    b.label("end");
    b.halt();
    Program p = b.build();
    ASSERT_EQ(p.validate(), "");
    // The backward branch targets pc 1, the forward jmp targets pc 6.
    EXPECT_EQ(p.at(3).imm, 1);
    EXPECT_EQ(p.at(4).imm, 6);
}

TEST(BuilderDeathTest, UndefinedLabelIsFatal)
{
    ProgramBuilder b("bad");
    b.jmp("nowhere");
    b.halt();
    EXPECT_EXIT(b.build(), testing::ExitedWithCode(1), "undefined label");
}

TEST(BuilderDeathTest, DuplicateLabelIsFatal)
{
    ProgramBuilder b("bad");
    b.label("x");
    EXPECT_EXIT(b.label("x"), testing::ExitedWithCode(1), "duplicate");
}

TEST(Program, ValidateCatchesMissingHalt)
{
    Program p("nohalt");
    p.code().push_back({Opcode::kAddi, 1, 0, 0, 1, false});
    EXPECT_NE(p.validate().find("halt"), std::string::npos);
}

TEST(Program, ValidateCatchesR0Write)
{
    Program p("r0");
    p.code().push_back({Opcode::kAddi, 0, 0, 0, 1, false});
    p.code().push_back({Opcode::kHalt, 0, 0, 0, 0, false});
    EXPECT_NE(p.validate().find("r0"), std::string::npos);
}

TEST(Program, ValidateCatchesBranchOutOfRange)
{
    Program p("branch");
    p.code().push_back({Opcode::kJmp, 0, 0, 0, 99, false});
    p.code().push_back({Opcode::kHalt, 0, 0, 0, 0, false});
    EXPECT_NE(p.validate().find("target"), std::string::npos);
}

TEST(Program, ValidateCatchesSliceHintOnNonStore)
{
    Program p("hint");
    p.code().push_back({Opcode::kAddi, 1, 0, 0, 1, true});
    p.code().push_back({Opcode::kHalt, 0, 0, 0, 0, false});
    EXPECT_NE(p.validate().find("sliceHint"), std::string::npos);
}

TEST(Program, ValidateCatchesFallThroughEnd)
{
    // A halt that is jumped over: pc 2 steps off the end.
    Program p("fallthrough");
    p.code().push_back({Opcode::kBeq, 0, 0, 0, 2, false});
    p.code().push_back({Opcode::kHalt, 0, 0, 0, 0, false});
    p.code().push_back({Opcode::kMovi, 1, 0, 0, 7, false});
    EXPECT_EQ(p.validate(), "pc 2: falls through the program end");

    // A conditional branch falls through when it is not taken.
    Program q("branchend");
    q.code().push_back({Opcode::kHalt, 0, 0, 0, 0, false});
    q.code().push_back({Opcode::kBne, 0, 1, 0, 0, false});
    EXPECT_EQ(q.validate(), "pc 1: falls through the program end");

    // An unconditional jump back is a valid last instruction.
    q.code()[1] = {Opcode::kJmp, 0, 0, 0, 0, false};
    EXPECT_EQ(q.validate(), "");
}

TEST(Program, SliceHintedStoresCountsOnlyHinted)
{
    ProgramBuilder b("hints");
    b.movi(1, 7);
    b.store(1, 1);
    b.store(1, 1, 1);
    b.halt();
    Program p = b.build();
    EXPECT_EQ(p.sliceHintedStores(), 0u);
    p.code()[1].sliceHint = true;
    EXPECT_EQ(p.sliceHintedStores(), 1u);
}

TEST(Program, DataSegmentRoundTrips)
{
    ProgramBuilder b("data");
    b.data(100, 42).data(200, 43);
    b.halt();
    Program p = b.build();
    ASSERT_EQ(p.data().words.size(), 2u);
    EXPECT_EQ(p.data().words[0].first, 100u);
    EXPECT_EQ(p.data().words[0].second, 42u);
}

TEST(Disassembler, RendersEveryClass)
{
    EXPECT_NE(toString({Opcode::kAdd, 1, 2, 3, 0, false}).find("add"),
              std::string::npos);
    EXPECT_NE(toString({Opcode::kLoad, 1, 2, 0, 8, false}).find("[r2+8]"),
              std::string::npos);
    auto store = toString({Opcode::kStore, 0, 2, 3, -4, true});
    EXPECT_NE(store.find("[r2-4]"), std::string::npos);
    EXPECT_NE(store.find("assoc-addr"), std::string::npos);
    EXPECT_NE(toString({Opcode::kBarrier, 0, 0, 0, 0, false})
                  .find("barrier"),
              std::string::npos);
}

TEST(Disassembler, DumpsWholeProgram)
{
    ProgramBuilder b("dump");
    b.movi(1, 1);
    b.halt();
    Program p = b.build();
    std::ostringstream oss;
    p.disassemble(oss);
    EXPECT_NE(oss.str().find("movi"), std::string::npos);
    EXPECT_NE(oss.str().find("halt"), std::string::npos);
    EXPECT_NE(oss.str().find("'dump'"), std::string::npos);
}

} // namespace
} // namespace acr::isa
