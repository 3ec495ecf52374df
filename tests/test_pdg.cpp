#include <gtest/gtest.h>

#include "analysis/dominators.hpp"
#include "ir/builder.hpp"
#include "pdg/pdg_builder.hpp"
#include "testgen.hpp"

namespace gmt
{
namespace
{

/** The PDG of @p f, with the control dependence built alongside. */
Pdg
pdgOf(const Function &f)
{
    auto pdom = DominatorTree::postDominators(f);
    ControlDependence cd(f, pdom);
    return buildPdg(f, cd);
}

bool
hasArc(const Pdg &pdg, InstrId src, InstrId dst, DepKind kind)
{
    for (int a : pdg.arcsFrom(src)) {
        const PdgArc &arc = pdg.arc(a);
        if (arc.dst == dst && arc.kind == kind)
            return true;
    }
    return false;
}

TEST(Pdg, StraightLineRegisterDep)
{
    FunctionBuilder b("sl");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg y = b.addImm(x, 1);       // const; add (uses x)
    Reg z = b.mul(y, y);          // uses y
    b.ret({z});
    Function f = b.finish();
    Pdg pdg = pdgOf(f);

    // add -> mul through y, mul -> ret through z.
    InstrId add = f.block(bb).instrs()[1];
    InstrId mul = f.block(bb).instrs()[2];
    InstrId ret = f.block(bb).instrs()[3];
    EXPECT_TRUE(hasArc(pdg, add, mul, DepKind::Register));
    EXPECT_TRUE(hasArc(pdg, mul, ret, DepKind::Register));
    EXPECT_FALSE(hasArc(pdg, add, ret, DepKind::Register));
    (void)z;
}

TEST(Pdg, ConditionalDefsBothReachUse)
{
    FunctionBuilder b("cond");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId then_b = b.newBlock("then");
    BlockId else_b = b.newBlock("else");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    Reg r = b.constI(0); // def 1 of r
    b.br(c, then_b, else_b);
    b.setBlock(then_b);
    b.constInto(r, 1); // def 2 of r
    b.jmp(join);
    b.setBlock(else_b);
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.mov(r); // use of r
    b.ret({s});
    Function f = b.finish();
    Pdg pdg = pdgOf(f);

    InstrId def1 = f.block(top).instrs()[0];
    InstrId def2 = f.block(then_b).instrs()[0];
    InstrId use = f.block(join).instrs()[0];
    EXPECT_TRUE(hasArc(pdg, def1, use, DepKind::Register));
    EXPECT_TRUE(hasArc(pdg, def2, use, DepKind::Register));
}

TEST(Pdg, KilledDefDoesNotReach)
{
    FunctionBuilder b("kill");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg r = b.constI(1);   // def 1
    b.constInto(r, 2);     // def 2 kills def 1
    Reg s = b.mov(r);      // use
    b.ret({s});
    Function f = b.finish();
    Pdg pdg = pdgOf(f);
    InstrId def1 = f.block(bb).instrs()[0];
    InstrId def2 = f.block(bb).instrs()[1];
    InstrId use = f.block(bb).instrs()[2];
    EXPECT_FALSE(hasArc(pdg, def1, use, DepKind::Register));
    EXPECT_TRUE(hasArc(pdg, def2, use, DepKind::Register));
}

TEST(Pdg, LoopCarriedRegisterDep)
{
    FunctionBuilder b("loop");
    Reg n = b.param();
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(head);
    Reg i = b.constI(0);
    b.jmp(body);
    b.setBlock(body);
    Reg one = b.constI(1);
    b.addInto(i, i, one); // def and use of i: loop carried
    Reg c = b.cmpLt(i, n);
    b.br(c, body, exit);
    b.setBlock(exit);
    b.ret({i});
    Function f = b.finish();
    Pdg pdg = pdgOf(f);
    InstrId add = f.block(body).instrs()[1];
    // The add's def of i reaches its own use around the back edge.
    EXPECT_TRUE(hasArc(pdg, add, add, DepKind::Register));
}

TEST(Pdg, ControlArcsFromBranch)
{
    FunctionBuilder b("cd");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId then_b = b.newBlock("then");
    BlockId else_b = b.newBlock("else");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    b.br(c, then_b, else_b);
    b.setBlock(then_b);
    Reg x = b.constI(1);
    b.jmp(join);
    b.setBlock(else_b);
    b.jmp(join);
    b.setBlock(join);
    b.ret({x});
    Function f = b.finish();
    Pdg pdg = pdgOf(f);
    InstrId branch = f.block(top).terminator();
    InstrId def = f.block(then_b).instrs()[0];
    InstrId ret = f.block(join).terminator();
    EXPECT_TRUE(hasArc(pdg, branch, def, DepKind::Control));
    EXPECT_FALSE(hasArc(pdg, branch, ret, DepKind::Control));
}

TEST(Pdg, MemoryArc)
{
    FunctionBuilder b("mem");
    Reg a = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(5);
    b.store(a, 0, v, 2);
    Reg w = b.load(a, 0, 2);
    b.ret({w});
    Function f = b.finish();
    Pdg pdg = pdgOf(f);
    InstrId st = f.block(bb).instrs()[1];
    InstrId ld = f.block(bb).instrs()[2];
    EXPECT_TRUE(hasArc(pdg, st, ld, DepKind::Memory));
}

TEST(Pdg, RetUsesLiveOuts)
{
    FunctionBuilder b("ret");
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg x = b.constI(3);
    b.ret({x});
    Function f = b.finish();
    Pdg pdg = pdgOf(f);
    InstrId def = f.block(bb).instrs()[0];
    InstrId ret = f.block(bb).terminator();
    EXPECT_TRUE(hasArc(pdg, def, ret, DepKind::Register));
}

// Property: every register arc's dst actually uses the register and
// src defines it; every control arc's src is a branch.
TEST(PdgProperty, ArcWellFormedness)
{
    Rng rng(616);
    for (int trial = 0; trial < 30; ++trial) {
        auto prog = generateProgram(rng);
        const Function &f = prog.func;
        Pdg pdg = pdgOf(f);
        for (const auto &arc : pdg.arcs()) {
            switch (arc.kind) {
              case DepKind::Register: {
                ASSERT_EQ(f.defOf(arc.src), arc.reg);
                auto uses = f.usesOf(arc.dst);
                ASSERT_TRUE(std::find(uses.begin(), uses.end(),
                                      arc.reg) != uses.end());
                break;
              }
              case DepKind::Control:
                ASSERT_TRUE(f.instr(arc.src).isBranch());
                break;
              case DepKind::Memory:
                ASSERT_TRUE(f.instr(arc.src).isMemoryAccess());
                ASSERT_TRUE(f.instr(arc.dst).isMemoryAccess());
                break;
            }
        }
    }
}

} // namespace
} // namespace gmt
