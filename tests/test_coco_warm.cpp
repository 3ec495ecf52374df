/**
 * @file
 * The warm-start contract: COCO's warm-started cut solving (retained
 * flow graphs re-solved through MaxFlow::resolve) must produce a comm
 * plan identical to cold from-scratch solving on every cell, and the
 * flow-network arena it relies on must behave like fresh builds.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "coco/coco.hpp"
#include "driver/pass_manager.hpp"
#include "ir/builder.hpp"
#include "pdg/pdg_builder.hpp"
#include "graph/max_flow.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

void
expectSamePlan(const CommPlan &cold, const CommPlan &warm,
               const std::string &cell)
{
    ASSERT_EQ(cold.placements.size(), warm.placements.size()) << cell;
    for (size_t i = 0; i < cold.placements.size(); ++i) {
        const CommPlacement &a = cold.placements[i];
        const CommPlacement &b = warm.placements[i];
        EXPECT_EQ(a.kind, b.kind) << cell << " placement " << i;
        EXPECT_EQ(a.reg, b.reg) << cell << " placement " << i;
        EXPECT_EQ(a.src_thread, b.src_thread)
            << cell << " placement " << i;
        EXPECT_EQ(a.dst_thread, b.dst_thread)
            << cell << " placement " << i;
        EXPECT_EQ(a.points, b.points) << cell << " placement " << i;
    }
}

// Warm-started cut solving (the default) must produce plans
// byte-identical to cold from-scratch solving across the full matrix
// — and it must actually fire (the repeat-until loop re-solves every
// problem at least twice, so a converging run always has warm
// opportunities).
TEST(CocoWarm, WarmStartPlanIdentical)
{
    MetricsRegistry &m = MetricsRegistry::global();
    uint64_t warm0 = m.counter("coco.warm_starts").value();
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);

            const Function &f = ctx.pdg->ir->func;
            const std::vector<SafetyAnalysis> safety =
                safetyPerThread(f, ctx.partition->partition);
            auto solve = [&](bool warm) {
                CocoOptions opts;
                opts.warm_start = warm;
                return cocoOptimize(f, ctx.pdg->pdg,
                                    ctx.partition->partition, safety,
                                    ctx.pdg->cd,
                                    ctx.profile->profile, opts);
            };
            CocoResult cold = solve(false);
            CocoResult warm = solve(true);
            expectSamePlan(cold.plan, warm.plan, ctx.cellId());
            EXPECT_EQ(cold.iterations, warm.iterations)
                << ctx.cellId();
            EXPECT_EQ(cold.register_cut_cost, warm.register_cut_cost)
                << ctx.cellId();
            EXPECT_EQ(cold.memory_cut_cost, warm.memory_cut_cost)
                << ctx.cellId();
            EXPECT_EQ(cold.warm_starts, 0u) << ctx.cellId();
        }
    }
    EXPECT_GT(m.counter("coco.warm_starts").value(), warm0);
}

// The super-pair memory ablation exercises the true-resolve warm path
// for memory graphs (multi-pair rewinds the build instead); both must
// agree with their cold counterparts.
TEST(CocoWarm, WarmStartIdenticalUnderAblations)
{
    const Workload w = allWorkloads().front();
    PipelineOptions po;
    po.scheduler = Scheduler::Dswp;
    po.use_coco = true;
    PipelineContext ctx(w, po);
    PassManager::codegenPipeline().run(ctx);
    const Function &f = ctx.pdg->ir->func;
    const std::vector<SafetyAnalysis> safety =
        safetyPerThread(f, ctx.partition->partition);

    for (bool penalties : {false, true}) {
        for (bool multi_pair : {false, true}) {
            CocoOptions opts;
            opts.control_flow_penalties = penalties;
            opts.multi_pair_memory = multi_pair;
            opts.warm_start = false;
            CocoResult cold =
                cocoOptimize(f, ctx.pdg->pdg,
                             ctx.partition->partition, safety,
                             ctx.pdg->cd, ctx.profile->profile, opts,
                             CocoExec{});
            opts.warm_start = true;
            CocoResult warm =
                cocoOptimize(f, ctx.pdg->pdg,
                             ctx.partition->partition, safety,
                             ctx.pdg->cd, ctx.profile->profile, opts,
                             CocoExec{});
            expectSamePlan(cold.plan, warm.plan, ctx.cellId());
        }
    }
}

// Calls that share one CocoArenaCache (the autotuner's re-cuts: same
// partition, shifted profile) must each give the plan a fresh arena
// gives, also when the penalty ablation changes between calls.
// Between calls the arena keeps its retained graphs, whose costs were
// derived from the previous call's profile and relevant sets.
TEST(CocoWarm, SharedArenaCacheMatchesFreshArena)
{
    uint64_t warm = 0;
    Rng rng(777);
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);
            const Function &f = ctx.pdg->ir->func;
            const std::vector<SafetyAnalysis> safety =
                safetyPerThread(f, ctx.partition->partition);

            std::vector<uint64_t> boost(f.numBlocks());
            for (uint64_t &v : boost)
                v = rng.nextBelow(4) == 0 ? rng.nextBelow(5000) : 0;
            const EdgeProfile &base = ctx.profile->profile;
            const EdgeProfile boosted = base.withBlockBoost(boost);

            CocoArenaCache cache;
            auto solve = [&](const EdgeProfile &prof, bool penalties,
                             bool shared) {
                CocoOptions opts;
                opts.control_flow_penalties = penalties;
                CocoExec exec;
                if (shared)
                    exec.arena_cache = &cache;
                return cocoOptimize(f, ctx.pdg->pdg,
                                    ctx.partition->partition, safety,
                                    ctx.pdg->cd, prof, opts, exec);
            };
            const std::pair<const EdgeProfile *, bool> calls[] = {
                {&base, true},
                {&boosted, true},
                {&base, false},
                {&base, true}};
            for (auto [prof, penalties] : calls) {
                CocoResult fresh = solve(*prof, penalties, false);
                CocoResult reused = solve(*prof, penalties, true);
                expectSamePlan(fresh.plan, reused.plan, ctx.cellId());
                EXPECT_EQ(fresh.iterations, reused.iterations)
                    << ctx.cellId();
                EXPECT_EQ(fresh.register_cut_cost,
                          reused.register_cut_cost)
                    << ctx.cellId();
                EXPECT_EQ(fresh.memory_cut_cost, reused.memory_cut_cost)
                    << ctx.cellId();
                warm += reused.warm_starts;
            }
        }
    }
    EXPECT_GT(warm, 0u);
}

/**
 * One thread pair, T0 -> T1: T0 defines x1 and x2 in both arms of a
 * diamond; T1 uses x1 in the join block and x2 in the tail after it.
 * A cut in an arm costs the arm's weight plus the branch block's
 * weight (the §3.1.2 penalty) until a cut there makes the branch
 * relevant to T1. x1 can also be cut in the join; x2 in the join, on
 * the join -> tail edge, or in the tail.
 */
struct Diamond
{
    Function f{"diamond"};
    BlockId entry = kNoBlock, join = kNoBlock, tail = kNoBlock;
    ThreadPartition part;
    std::unique_ptr<ControlDependence> cd;
    std::unique_ptr<Pdg> pdg;

    /** Weights: each arm and its edges @p arm, the branch block
     *  @p branch, the join block @p join, the join -> tail edge
     *  @p edge and the tail block @p tail. */
    EdgeProfile
    profile(uint64_t arm, uint64_t branch, uint64_t join_w,
            uint64_t edge, uint64_t tail_w) const
    {
        ProfileData d;
        d.block_counts = {branch, arm, arm, join_w, tail_w};
        d.edge_counts = {{arm, arm}, {arm}, {arm}, {edge}, {}};
        return EdgeProfile::fromRun(f, d);
    }

    CocoResult
    solve(const EdgeProfile &prof, bool penalties,
          CocoArenaCache *shared) const
    {
        CocoOptions opts;
        opts.control_flow_penalties = penalties;
        CocoExec exec;
        exec.arena_cache = shared;
        return cocoOptimize(f, *pdg, part, safetyPerThread(f, part), *cd,
                            prof, opts, exec);
    }

    /** Is the one placement of x1 (0) or x2 (1) in the arms? */
    bool
    inArms(const CocoResult &r, int k) const
    {
        for (const ProgramPoint &pt : r.plan.placements.at(k).points)
            if (pt.block == entry || pt.block == join || pt.block == tail)
                return false;
        return true;
    }
};

Diamond
buildDiamond()
{
    Diamond d;
    FunctionBuilder b("diamond");
    Reg p = b.param();
    d.entry = b.newBlock("entry");
    BlockId then_b = b.newBlock("then");
    BlockId else_b = b.newBlock("else");
    d.join = b.newBlock("join");
    d.tail = b.newBlock("tail");
    b.setBlock(d.entry);
    b.br(p, then_b, else_b);
    b.setBlock(then_b);
    Reg x1 = b.constI(1);
    Reg x2 = b.constI(2);
    b.jmp(d.join);
    b.setBlock(else_b);
    b.constInto(x1, 3);
    b.constInto(x2, 4);
    b.jmp(d.join);
    b.setBlock(d.join);
    Reg y = b.addImm(x1, 1);
    b.jmp(d.tail);
    b.setBlock(d.tail);
    Reg z = b.add(x2, y);
    b.ret({z});
    d.f = b.finish();

    d.part.num_threads = 2;
    d.part.assign.assign(d.f.numInstrs(), 0);
    for (BlockId blk : {d.join, d.tail})
        for (InstrId i : d.f.block(blk).instrs())
            d.part.assign[i] = 1;
    auto pdom = DominatorTree::postDominators(d.f);
    d.cd = std::make_unique<ControlDependence>(d.f, pdom);
    d.pdg = std::make_unique<Pdg>(buildPdg(d.f, *d.cd));
    return d;
}

// x1's cut in the arms (2 x (1 + 100) < 1000) makes the branch
// relevant to T1, so x2, solved next under the same thread pair, must
// see the arms without the penalty (2 x 1 < 50) rather than the
// penalty the block-cost memo held (2 x 101 > 50).
TEST(CocoWarm, RelevantGrowthRefreshesBlockCosts)
{
    Diamond d = buildDiamond();
    CocoResult r = d.solve(d.profile(1, 100, 1000, 50, 60), true, nullptr);
    ASSERT_EQ(r.plan.placements.size(), 2u);
    EXPECT_TRUE(d.inArms(r, 0));
    EXPECT_TRUE(d.inArms(r, 1));
}

// The second call shares the arena, and with it x1's retained graph,
// whose arc costs hold the first call's profile and penalties under
// the same thread pair. In the second profile x1's cut stays in the
// join (500) only through the larger penalty (2 x (1 + 1000)); with
// the first call's penalty (2 x (1 + 100)) it would move into the
// arms.
TEST(CocoWarm, SharedArenaCacheSinglePairProfileShift)
{
    Diamond d = buildDiamond();
    const EdgeProfile first = d.profile(1, 100, 50, 40, 60);
    const EdgeProfile second = d.profile(1, 1000, 500, 40, 60);

    CocoArenaCache cache;
    CocoResult first_fresh = d.solve(first, true, nullptr);
    CocoResult first_shared = d.solve(first, true, &cache);
    CocoResult second_fresh = d.solve(second, true, nullptr);
    CocoResult second_shared = d.solve(second, true, &cache);
    CocoResult second_no_pen = d.solve(second, false, nullptr);
    EXPECT_FALSE(d.inArms(first_fresh, 0));
    EXPECT_FALSE(d.inArms(second_fresh, 0));
    EXPECT_TRUE(d.inArms(second_no_pen, 0));
    expectSamePlan(first_fresh.plan, first_shared.plan, "first");
    expectSamePlan(second_fresh.plan, second_shared.plan, "second");
    EXPECT_EQ(second_fresh.register_cut_cost,
              second_shared.register_cut_cost);
    EXPECT_GT(second_shared.warm_starts, 0u);
}

// ---------------------------------------------------------------
// Network arena reuse: reset + attach must behave like fresh builds.
// ---------------------------------------------------------------

TEST(FlowNetworkReuse, ResetMatchesFreshNetwork)
{
    Rng rng(424242);
    FlowNetwork arena(0);
    MaxFlow mf;
    for (int trial = 0; trial < 40; ++trial) {
        int n = 3 + static_cast<int>(rng.nextBelow(12));
        arena.reset(n);
        FlowNetwork fresh(n);
        for (int e = 0; e < 2 * n; ++e) {
            int u = static_cast<int>(rng.nextBelow(n));
            int v = static_cast<int>(rng.nextBelow(n));
            if (u == v)
                continue;
            Capacity cap =
                static_cast<Capacity>(1 + rng.nextBelow(30));
            arena.addArc(u, v, cap);
            fresh.addArc(u, v, cap);
        }
        mf.attach(arena);
        MaxFlow ref(fresh);
        Capacity got = mf.solve(0, n - 1);
        ASSERT_EQ(got, ref.solve(0, n - 1)) << "trial " << trial;
        EXPECT_EQ(mf.minCutArcs(), ref.minCutArcs())
            << "trial " << trial;
    }
}

TEST(FlowNetworkReuse, AddNodeReusesDirtySlots)
{
    FlowNetwork net(2);
    net.addArc(0, 1, 5);
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 1), 5);

    net.reset(2);
    int extra = net.addNode();
    EXPECT_EQ(extra, 2);
    net.addArc(0, extra, 3);
    net.addArc(extra, 1, 3);
    mf.attach(net);
    EXPECT_EQ(mf.solve(0, 1), 3);
}

} // namespace
} // namespace gmt
