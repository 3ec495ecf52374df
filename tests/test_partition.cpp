#include <gtest/gtest.h>

#include "analysis/dominators.hpp"
#include "analysis/loop_info.hpp"
#include "ir/builder.hpp"
#include "partition/dswp.hpp"
#include "partition/gremio.hpp"
#include "pdg/pdg_builder.hpp"
#include "runtime/interpreter.hpp"
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

EdgeProfile
profileOf(const Function &f, const std::vector<int64_t> &args,
          int64_t cells)
{
    MemoryImage mem;
    mem.alloc(cells);
    auto run = interpret(f, args, mem);
    return EdgeProfile::fromRun(f, run.profile);
}

TEST(Partition, SingleThreadAssignsEverything)
{
    Rng rng(1);
    auto prog = generateProgram(rng);
    auto p = singleThreadPartition(prog.func);
    Pdg pdg = pdgOf(prog.func);
    EXPECT_TRUE(validatePartition(pdg, p, true).empty());
    EXPECT_EQ(countCrossThreadArcs(pdg, p), 0);
}

TEST(Partition, MembersOf)
{
    Rng rng(2);
    auto prog = generateProgram(rng);
    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(prog.func.numInstrs(), 0);
    p.assign[0] = 1;
    auto m1 = p.membersOf(1);
    ASSERT_EQ(m1.size(), 1u);
    EXPECT_EQ(m1[0], 0);
}

TEST(Partition, ValidateCatchesBadThread)
{
    Rng rng(3);
    auto prog = generateProgram(rng);
    Pdg pdg = pdgOf(prog.func);
    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(prog.func.numInstrs(), 0);
    p.assign[0] = 7;
    EXPECT_FALSE(validatePartition(pdg, p, false).empty());
}

TEST(Dswp, ProducesValidPipeline)
{
    Rng rng(44);
    for (int trial = 0; trial < 25; ++trial) {
        auto prog = generateProgram(rng);
        Pdg pdg = pdgOf(prog.func);
        auto profile = profileOf(prog.func, {3, -5}, prog.array_cells);
        auto p =
            dswpPartition(pdg, pdgSccs(pdg), profile, {.num_threads = 2});
        auto problems = validatePartition(pdg, p, true);
        ASSERT_TRUE(problems.empty())
            << "trial " << trial << ": " << problems[0];
    }
}

TEST(Dswp, MoreThreadsStillPipeline)
{
    Rng rng(45);
    auto prog = generateProgram(rng, {.max_depth = 4, .max_stmts = 8});
    Pdg pdg = pdgOf(prog.func);
    auto profile = profileOf(prog.func, {9, 2}, prog.array_cells);
    for (int nt : {3, 4, 6}) {
        auto p =
            dswpPartition(pdg, pdgSccs(pdg), profile, {.num_threads = nt});
        EXPECT_TRUE(validatePartition(pdg, p, true).empty());
        EXPECT_EQ(p.num_threads, nt);
    }
}

TEST(Dswp, SplitsWorkAcrossThreads)
{
    // A two-stage producer/consumer loop nest should split.
    Rng rng(46);
    int split_count = 0;
    for (int trial = 0; trial < 10; ++trial) {
        auto prog = generateProgram(rng, {.max_depth = 4});
        Pdg pdg = pdgOf(prog.func);
        auto profile = profileOf(prog.func, {7, 3}, prog.array_cells);
        auto p =
            dswpPartition(pdg, pdgSccs(pdg), profile, {.num_threads = 2});
        if (!p.membersOf(0).empty() && !p.membersOf(1).empty())
            ++split_count;
    }
    EXPECT_GT(split_count, 0);
}

TEST(Gremio, ProducesValidAssignment)
{
    Rng rng(47);
    for (int trial = 0; trial < 25; ++trial) {
        auto prog = generateProgram(rng);
        Pdg pdg = pdgOf(prog.func);
        auto profile = profileOf(prog.func, {4, 11}, prog.array_cells);
        auto p = gremioPartition(pdg, pdgSccs(pdg), profile,
                                 {.num_threads = 2});
        ASSERT_TRUE(validatePartition(pdg, p, false).empty());
    }
}

TEST(Gremio, UsesBothThreadsOnParallelWork)
{
    // Two independent long dependence chains: list scheduling should
    // place them on different threads.
    FunctionBuilder b("par");
    Reg a = b.param();
    Reg c = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg x = a, y = c;
    for (int i = 0; i < 10; ++i) {
        x = b.addImm(x, 3);
        y = b.addImm(y, 5);
    }
    b.ret({x, y});
    Function f = b.finish();
    Pdg pdg = pdgOf(f);
    MemoryImage mem;
    auto run = interpret(f, {1, 2}, mem);
    auto profile = EdgeProfile::fromRun(f, run.profile);
    auto p =
        gremioPartition(pdg, pdgSccs(pdg), profile, {.num_threads = 2});
    EXPECT_FALSE(p.membersOf(0).empty());
    EXPECT_FALSE(p.membersOf(1).empty());
}

TEST(Gremio, RespectsSingleThreadDegenerate)
{
    Rng rng(48);
    auto prog = generateProgram(rng);
    Pdg pdg = pdgOf(prog.func);
    auto profile = profileOf(prog.func, {1, 1}, prog.array_cells);
    auto p =
        gremioPartition(pdg, pdgSccs(pdg), profile, {.num_threads = 1});
    EXPECT_TRUE(validatePartition(pdg, p, true).empty());
    EXPECT_EQ(countCrossThreadArcs(pdg, p), 0);
}

} // namespace
} // namespace gmt
