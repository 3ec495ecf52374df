#include <gtest/gtest.h>

#include <set>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "equiv.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "mtcg/queue_alloc.hpp"
#include "pdg/pdg_builder.hpp"
#include "support/error.hpp"
#include "testgen.hpp"

namespace gmt
{
namespace
{

CommPlan
makePlan(int placements, int num_threads)
{
    CommPlan plan;
    for (int i = 0; i < placements; ++i) {
        CommPlacement pl;
        pl.kind = CommKind::RegisterData;
        pl.reg = i;
        pl.src_thread = i % num_threads;
        pl.dst_thread = (i + 1) % num_threads;
        pl.points = {{0, 0}};
        plan.placements.push_back(pl);
    }
    return plan;
}

TEST(QueueAlloc, IdentityWhenBudgetAmple)
{
    CommPlan plan = makePlan(6, 2);
    auto alloc = allocateQueues(plan, 64);
    EXPECT_LE(alloc.num_queues, 64);
    // Each placement got a queue; queues of one pair are distinct
    // when the budget allows it.
    for (int q : alloc.queue_of)
        EXPECT_GE(q, 0);
}

TEST(QueueAlloc, SharesWithinPairsWhenTight)
{
    CommPlan plan = makePlan(20, 2); // pairs (0->1) and (1->0)
    auto alloc = allocateQueues(plan, 4);
    EXPECT_LE(alloc.num_queues, 4);
    // Placements of different ordered pairs never share a queue.
    std::set<int> q01, q10;
    for (size_t i = 0; i < plan.placements.size(); ++i) {
        if (plan.placements[i].src_thread == 0)
            q01.insert(alloc.queue_of[i]);
        else
            q10.insert(alloc.queue_of[i]);
    }
    for (int q : q01)
        EXPECT_EQ(q10.count(q), 0u);
}

TEST(QueueAlloc, FailsBelowPairCount)
{
    CommPlan plan = makePlan(8, 4); // 4 ordered pairs
    EXPECT_THROW(allocateQueues(plan, 3), FatalError);
}

TEST(QueueAlloc, IdentityRecordsOneQueuePerPlacement)
{
    CommPlan plan = makePlan(5, 2);
    QueueProvenance prov;
    QueueAllocation alloc = identityQueues(plan, &prov);
    EXPECT_EQ(alloc.num_queues, 5);
    EXPECT_EQ(prov.max_queues, 0);
    EXPECT_EQ(prov.num_queues, 5);
    ASSERT_EQ(prov.queues.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(alloc.queue_of[i], i);
        EXPECT_EQ(prov.queues[i].queue, i);
        EXPECT_EQ(prov.queues[i].rule, "identity");
        EXPECT_EQ(prov.queues[i].placements, std::vector<int>{i});
    }
}

TEST(QueueAlloc, EmptyPlan)
{
    CommPlan plan;
    auto alloc = allocateQueues(plan, 16);
    EXPECT_EQ(alloc.num_queues, 0);
}

// The decisive test: generated code multiplexed onto a tiny queue
// budget must stay observationally equivalent and deadlock-free for
// many random programs, partitions, and schedules.
class QueueAllocProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(QueueAllocProperty, EquivalentUnderTinyBudgets)
{
    const int max_queues = GetParam();
    Rng rng(66000 + max_queues);
    for (int trial = 0; trial < 15; ++trial) {
        auto gen = generateProgram(rng);
        Function &f = gen.func;
        splitCriticalEdges(f);
        verifyOrDie(f);
        auto pdom = DominatorTree::postDominators(f);
        ControlDependence cd(f, pdom);
        Pdg pdg = buildPdg(f, cd);
        ThreadPartition p;
        p.num_threads = 2;
        p.assign.resize(f.numInstrs());
        for (auto &x : p.assign)
            x = static_cast<int>(rng.nextBelow(2));
        CommPlan plan = defaultMtcgPlan(f, pdg, p, cd);

        MtcgOptions opts;
        opts.queue_capacity = 1; // worst case for backpressure
        MtProgram prog = runMtcg(f, pdg, p, plan, cd, opts);
        remapQueues(prog, allocateQueues(plan, max_queues));
        EXPECT_LE(prog.num_queues, max_queues);
        for (const Function &tf : prog.threads)
            EXPECT_TRUE(
                verifyFunction(tf, {.num_queues = prog.num_queues})
                    .empty());

        for (uint64_t seed = 0; seed < 3; ++seed) {
            auto out = checkEquivalence(
                f, prog, {3, -7}, gen.array_cells, nullptr,
                seed == 0 ? SchedulePolicy::RoundRobin
                          : SchedulePolicy::Random,
                seed);
            ASSERT_TRUE(out.ok)
                << out.detail << " trial=" << trial
                << " budget=" << max_queues << " seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, QueueAllocProperty,
                         ::testing::Values(2, 4, 8, 256),
                         [](const auto &info) {
                             std::string name = "q";
                             name += std::to_string(info.param);
                             return name;
                         });

} // namespace
} // namespace gmt
