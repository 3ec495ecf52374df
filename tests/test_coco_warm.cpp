/**
 * @file
 * The warm-start contract: COCO's warm-started cut solving (retained
 * flow graphs re-solved through MaxFlow::resolve) must produce a comm
 * plan identical to cold from-scratch solving on every cell, and the
 * flow-network arena it relies on must behave like fresh builds.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coco/coco.hpp"
#include "driver/pass_manager.hpp"
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
            auto solve = [&](bool warm) {
                CocoOptions opts;
                opts.warm_start = warm;
                return cocoOptimize(f, ctx.pdg->pdg,
                                    ctx.partition->partition,
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

    for (bool penalties : {false, true}) {
        for (bool multi_pair : {false, true}) {
            CocoOptions opts;
            opts.control_flow_penalties = penalties;
            opts.multi_pair_memory = multi_pair;
            opts.warm_start = false;
            CocoResult cold =
                cocoOptimize(f, ctx.pdg->pdg,
                             ctx.partition->partition, ctx.pdg->cd,
                             ctx.profile->profile, opts, CocoExec{});
            opts.warm_start = true;
            CocoResult warm =
                cocoOptimize(f, ctx.pdg->pdg,
                             ctx.partition->partition, ctx.pdg->cd,
                             ctx.profile->profile, opts, CocoExec{});
            expectSamePlan(cold.plan, warm.plan, ctx.cellId());
        }
    }
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
