#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "coco/validate.hpp"
#include "driver/pass_manager.hpp"
#include "ir/builder.hpp"
#include "mtverify/coverage.hpp"
#include "mtverify/mtverify.hpp"
#include "support/rng.hpp"
#include "workloads/generate.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// ---------------------------------------------------------------------
// Reference oracle: the per-arc instruction-level walk the batched
// engine replaced. For each arc it unions the points of every matching
// placement and runs a fresh DFS over program points. Slow, but each
// step is literal, so the engine must agree with it exactly.
// ---------------------------------------------------------------------

bool
referenceEscapes(const Function &f, ProgramPoint start, InstrId target,
                 const std::set<ProgramPoint> &barrier, Reg kill_reg)
{
    ProgramPoint goal{f.instr(target).block, f.positionOf(target)};
    std::set<ProgramPoint> seen;
    std::vector<ProgramPoint> work{start};
    while (!work.empty()) {
        ProgramPoint p = work.back();
        work.pop_back();
        if (barrier.count(p))
            continue;
        if (p == goal)
            return true;
        if (!seen.insert(p).second)
            continue;
        const BasicBlock &bb = f.block(p.block);
        int size = static_cast<int>(bb.size());
        EXPECT_TRUE(p.pos >= 0 && p.pos < size);
        InstrId here = bb.instrs()[p.pos];
        if (kill_reg != kNoReg && f.defOf(here) == kill_reg)
            continue;
        if (p.pos < size - 1) {
            work.push_back({p.block, p.pos + 1});
        } else {
            for (BlockId s : bb.succs())
                work.push_back({s, 0});
        }
    }
    return false;
}

std::vector<int>
referenceUncovered(const Function &f, const Pdg &pdg,
                   const ThreadPartition &part, const CommPlan &plan)
{
    std::vector<int> out;
    for (int ai = 0; ai < pdg.numArcs(); ++ai) {
        const PdgArc &arc = pdg.arc(ai);
        int ts = part.threadOf(arc.src);
        int tt = part.threadOf(arc.dst);
        if (ts == tt || arc.kind == DepKind::Control)
            continue;
        std::set<ProgramPoint> barrier;
        for (const CommPlacement &pl : plan.placements) {
            bool matches =
                pl.src_thread == ts && pl.dst_thread == tt &&
                ((arc.kind == DepKind::Register &&
                  pl.kind == CommKind::RegisterData &&
                  pl.reg == arc.reg) ||
                 (arc.kind == DepKind::Memory &&
                  pl.kind == CommKind::MemorySync));
            if (matches)
                barrier.insert(pl.points.begin(), pl.points.end());
        }
        ProgramPoint start{f.instr(arc.src).block,
                           f.positionOf(arc.src) + 1};
        Reg kill = arc.kind == DepKind::Register ? arc.reg : kNoReg;
        if (referenceEscapes(f, start, arc.dst, barrier, kill))
            out.push_back(ai);
    }
    return out;
}

/** validatePlanDiags' coverage finding for arc @p ai. */
MtvDiag
planCoverageDiag(const Function &f, const Pdg &pdg,
                 const ThreadPartition &part, int ai)
{
    const PdgArc &arc = pdg.arc(ai);
    std::ostringstream os;
    os << "arc i" << arc.src << " -> i" << arc.dst << " ("
       << (arc.kind == DepKind::Register ? "reg" : "mem") << ") from T"
       << part.threadOf(arc.src) << " to T" << part.threadOf(arc.dst)
       << " has an uncovered path";
    return {.code = MtvCode::PlanUncoveredArc,
            .thread = part.threadOf(arc.dst),
            .block = f.instr(arc.dst).block,
            .instr = arc.dst,
            .message = os.str()};
}

/** verifyMtProgram's coverage finding for arc @p ai. */
MtvDiag
mtCoverageDiag(const Function &f, const Pdg &pdg,
               const ThreadPartition &part, int ai)
{
    const PdgArc &arc = pdg.arc(ai);
    std::ostringstream os;
    if (arc.kind == DepKind::Register)
        os << "register r" << arc.reg;
    else
        os << "memory";
    os << " dependence i" << arc.src << " -> i" << arc.dst << " (T"
       << part.threadOf(arc.src) << " -> T" << part.threadOf(arc.dst)
       << ") has a path uncovered by any produce/consume";
    return {.code = MtvCode::DepUncovered,
            .thread = part.threadOf(arc.dst),
            .block = f.instr(arc.dst).block,
            .instr = arc.dst,
            .message = os.str()};
}

/**
 * @p actual with its @p code findings replaced by @p oracle's, then
 * normalized the way both producers normalize. Equal to @p actual iff
 * the engine reported exactly the oracle's arcs with the same text.
 */
template <typename MakeDiag>
std::vector<MtvDiag>
withOracleCoverage(std::vector<MtvDiag> actual, MtvCode code,
                   const std::vector<int> &oracle, MakeDiag make)
{
    std::erase_if(actual,
                  [&](const MtvDiag &d) { return d.code == code; });
    for (int ai : oracle)
        actual.push_back(make(ai));
    sortDiags(actual);
    dedupeDiags(actual);
    return actual;
}

/** @p plan with random points deleted or moved to a random valid
 *  point; placement count and order are kept (queue_of stays valid). */
CommPlan
perturbPlan(const Function &f, const CommPlan &plan, Rng &rng)
{
    CommPlan out = plan;
    for (CommPlacement &pl : out.placements) {
        std::vector<ProgramPoint> kept;
        for (ProgramPoint p : pl.points) {
            uint64_t roll = rng.nextBelow(4);
            if (roll == 0)
                continue; // deleted
            if (roll == 1) {
                BlockId b = static_cast<BlockId>(
                    rng.nextBelow(f.numBlocks()));
                int size = static_cast<int>(f.block(b).size());
                p = {b, static_cast<int>(rng.nextBelow(size))};
            }
            kept.push_back(p);
        }
        pl.points = std::move(kept);
    }
    return out;
}

/** Engine vs oracle on one (cell, plan), at all three interfaces. */
void
expectMatchesOracle(const PipelineContext &ctx, const CommPlan &plan,
                    const std::string &what)
{
    const Function &f = ctx.ir->func;
    const Pdg &pdg = ctx.pdg->pdg;
    const ThreadPartition &part = ctx.partition->partition;
    std::vector<int> oracle = referenceUncovered(f, pdg, part, plan);
    EXPECT_EQ(uncoveredArcs(f, pdg, part, plan), oracle) << what;

    auto plan_diags = validatePlanDiags(f, pdg, part, ctx.pdg->cd, plan);
    EXPECT_EQ(plan_diags,
              withOracleCoverage(plan_diags, MtvCode::PlanUncoveredArc,
                                 oracle,
                                 [&](int ai) {
                                     return planCoverageDiag(f, pdg,
                                                             part, ai);
                                 }))
        << what;

    MtVerifyResult res =
        verifyMtProgram({.orig = &f,
                         .pdg = &pdg,
                         .partition = &part,
                         .plan = &plan,
                         .queue_of = &ctx.prog->queue_of,
                         .prog = &ctx.prog->prog});
    EXPECT_EQ(res.diags,
              withOracleCoverage(res.diags, MtvCode::DepUncovered,
                                 oracle,
                                 [&](int ai) {
                                     return mtCoverageDiag(f, pdg, part,
                                                           ai);
                                 }))
        << what;
}

void
checkCell(const Workload &w, Scheduler sched, bool coco, uint64_t seed,
          int perturbations, int *uncovered_seen)
{
    PipelineOptions po;
    po.scheduler = sched;
    po.use_coco = coco;
    po.simulate = false;
    po.verify_mt = false;
    PipelineContext ctx(w, po);
    PassManager::codegenPipeline().run(ctx);
    const CommPlan &plan = ctx.plan->plan;
    expectMatchesOracle(ctx, plan, ctx.cellId() + " as emitted");
    Rng rng(seed);
    for (int k = 0; k < perturbations; ++k) {
        CommPlan bad = perturbPlan(ctx.ir->func, plan, rng);
        expectMatchesOracle(ctx, bad,
                            ctx.cellId() + " perturbation " +
                                std::to_string(k));
        *uncovered_seen += static_cast<int>(
            uncoveredArcs(ctx.ir->func, ctx.pdg->pdg,
                          ctx.partition->partition, bad)
                .size());
    }
}

// ---------------------------------------------------------------------
// Differential runs over real cells.
// ---------------------------------------------------------------------

/** The paper's 11 kernels x {DSWP, GREMIO} x {MTCG, COCO}, each plan
 *  as emitted and with points deleted or moved. */
TEST(CoverageDiff, WorkloadMatrix)
{
    int uncovered = 0;
    uint64_t seed = 1;
    for (const Workload &w : allWorkloads())
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio})
            for (bool coco : {false, true})
                checkCell(w, sched, coco, seed++, 2, &uncovered);
    // The perturbations must actually break coverage somewhere.
    EXPECT_GT(uncovered, 0);
}

TEST(CoverageDiff, GeneratedCells)
{
    int uncovered = 0;
    uint64_t rng_seed = 1;
    for (uint64_t seed : {3u, 11u, 23u, 47u, 91u})
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio})
            for (bool coco : {false, true})
                checkCell(generateWorkload(seed), sched, coco,
                          rng_seed++, 4, &uncovered);
    EXPECT_GT(uncovered, 0);
}

// ---------------------------------------------------------------------
// Hand-built corners. Arcs are added by hand so each test pins exactly
// one rule of the walk.
//
//   entry:  a: r = 1          (T0)
//           x = 5             (T0)
//           jmp loop
//   loop:   u: s = r + x      (T1)  uses r before its loop redefinition
//           d: r = r + 1      (T0)
//           c = r < x         (T0)
//           br c, loop, exit
//   exit:   k: r = r + 2      (T1)  uses and redefines r
//           ret r, s          (T1)
// ---------------------------------------------------------------------

struct Corners
{
    Function f{"corners"};
    Reg r = kNoReg;
    BlockId entry = kNoBlock, loop = kNoBlock, exit = kNoBlock;
    InstrId a = kNoInstr, u = kNoInstr, d = kNoInstr, k = kNoInstr;
    ThreadPartition part;

    Corners()
    {
        FunctionBuilder b("corners");
        entry = b.newBlock("entry");
        loop = b.newBlock("loop");
        exit = b.newBlock("exit");
        b.setBlock(entry);
        r = b.constI(1);
        a = b.lastInstr();
        Reg x = b.constI(5);
        b.jmp(loop);
        b.setBlock(loop);
        Reg s = b.add(r, x);
        u = b.lastInstr();
        b.binopInto(Opcode::Add, r, r, x);
        d = b.lastInstr();
        Reg c = b.cmpLt(r, x);
        b.br(c, loop, exit);
        b.setBlock(exit);
        b.binopInto(Opcode::Add, r, r, x);
        k = b.lastInstr();
        b.ret({r, s});
        f = b.finish();
        part.num_threads = 2;
        part.assign.assign(f.numInstrs(), 0);
        part.assign[u] = 1;
        for (InstrId i : f.block(exit).instrs())
            part.assign[i] = 1;
    }

    CommPlacement
    reg(std::vector<ProgramPoint> points) const
    {
        return {.kind = CommKind::RegisterData,
                .reg = r,
                .src_thread = 0,
                .dst_thread = 1,
                .points = std::move(points)};
    }

    /** Engine result, after checking it against the oracle. */
    std::vector<int>
    uncovered(const Pdg &pdg, const CommPlan &plan) const
    {
        std::vector<int> got = uncoveredArcs(f, pdg, part, plan);
        EXPECT_EQ(got, referenceUncovered(f, pdg, part, plan));
        return got;
    }
};

/** A redefinition at the goal still lets the path reach the goal; one
 *  strictly between source and goal kills it. */
TEST(CoverageCorner, KillAtGoalReachesIt)
{
    Corners c;
    Pdg pdg(c.f);
    pdg.appendArc({.src = c.a, .dst = c.u, .reg = c.r}); // 0: no kill
    pdg.appendArc({.src = c.d, .dst = c.k, .reg = c.r}); // 1: kill at k
    // 2: a's r reaches k only through d, which redefines r first.
    pdg.appendArc({.src = c.a, .dst = c.k, .reg = c.r});
    EXPECT_EQ(c.uncovered(pdg, {}), (std::vector<int>{0, 1}));
}

/** A barrier exactly at the goal point covers the arc; one just past
 *  it does not. */
TEST(CoverageCorner, BarrierAtGoalCovers)
{
    Corners c;
    Pdg pdg(c.f);
    pdg.appendArc({.src = c.d, .dst = c.k, .reg = c.r});
    EXPECT_EQ(c.uncovered(pdg, {.placements = {c.reg({{c.exit, 0}})}}),
              std::vector<int>{});
    EXPECT_EQ(c.uncovered(pdg, {.placements = {c.reg({{c.exit, 1}})}}),
              std::vector<int>{0});
}

/** d -> u is loop-carried: the destination sits before its source in
 *  the loop block and is reached only by re-entering it at 0. */
TEST(CoverageCorner, LoopReentersSourceBlock)
{
    Corners c;
    Pdg pdg(c.f);
    pdg.appendArc({.src = c.d, .dst = c.u, .reg = c.r});
    EXPECT_EQ(c.uncovered(pdg, {}), std::vector<int>{0});
    // Cut at the goal, or right after the source: covered.
    EXPECT_EQ(c.uncovered(pdg, {.placements = {c.reg({{c.loop, 0}})}}),
              std::vector<int>{});
    EXPECT_EQ(c.uncovered(pdg, {.placements = {c.reg({{c.loop, 2}})}}),
              std::vector<int>{});
    // Cut on the exit path only: the back edge still escapes.
    EXPECT_EQ(c.uncovered(pdg, {.placements = {c.reg({{c.exit, 0}})}}),
              std::vector<int>{0});
}

/** Without a loop, a destination before its source is unreachable. */
TEST(CoverageCorner, DestinationBeforeSourceWithoutLoop)
{
    FunctionBuilder b("straight");
    Reg p = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg y = b.addImm(p, 1); // Const + Add
    InstrId use = b.lastInstr();
    Reg r = b.constI(3);
    InstrId def = b.lastInstr();
    b.ret({y, r});
    Function f = b.finish();
    ThreadPartition part;
    part.num_threads = 2;
    part.assign.assign(f.numInstrs(), 0);
    part.assign[use] = 1;
    Pdg pdg(f);
    pdg.appendArc({.src = def, .dst = use, .reg = r});
    EXPECT_EQ(uncoveredArcs(f, pdg, part, {}), std::vector<int>{});
    EXPECT_EQ(referenceUncovered(f, pdg, part, {}), std::vector<int>{});
}

/** Plan points outside the function can never cut a path: they are
 *  skipped, next to a valid point that still does its job. */
TEST(CoverageCorner, InvalidPlanPointsAreIgnored)
{
    Corners c;
    Pdg pdg(c.f);
    pdg.appendArc({.src = c.d, .dst = c.k, .reg = c.r});
    pdg.appendArc({.src = c.d, .dst = c.u, .reg = c.r});
    std::vector<ProgramPoint> junk{
        {99, 0}, {-1, 0}, {c.loop, 999}, {c.loop, -1}, {c.exit, 2}};
    EXPECT_EQ(c.uncovered(pdg, {.placements = {c.reg(junk)}}),
              (std::vector<int>{0, 1}));
    junk.push_back({c.exit, 0});
    EXPECT_EQ(c.uncovered(pdg, {.placements = {c.reg(junk)}}),
              std::vector<int>{1});
}

/** Only placements with the arc's (threads, kind, register) key cut
 *  it: another register, the reverse direction, or a sync token for a
 *  register arc do not. */
TEST(CoverageCorner, BarrierKeyMustMatch)
{
    Corners c;
    Pdg pdg(c.f);
    pdg.appendArc({.src = c.d, .dst = c.k, .reg = c.r});
    pdg.appendArc({.src = c.d, .dst = c.k, .kind = DepKind::Memory});
    ProgramPoint goal{c.exit, 0};
    CommPlacement other_reg = c.reg({goal});
    other_reg.reg = c.r + 1;
    CommPlacement reverse = c.reg({goal});
    std::swap(reverse.src_thread, reverse.dst_thread);
    CommPlacement sync{.kind = CommKind::MemorySync,
                       .src_thread = 0,
                       .dst_thread = 1,
                       .points = {goal}};
    EXPECT_EQ(c.uncovered(pdg, {.placements = {other_reg, reverse}}),
              (std::vector<int>{0, 1}));
    EXPECT_EQ(c.uncovered(pdg, {.placements = {sync}}),
              std::vector<int>{0});
    EXPECT_EQ(c.uncovered(pdg, {.placements = {c.reg({goal})}}),
              std::vector<int>{1});
}

} // namespace
} // namespace gmt
