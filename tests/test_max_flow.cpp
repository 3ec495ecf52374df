#include "graph/max_flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "support/rng.hpp"

namespace gmt
{
namespace
{

struct ArcSpec
{
    int u, v;
    Capacity cap;
};

FlowNetwork
makeNetwork(int n, const std::vector<ArcSpec> &arcs)
{
    FlowNetwork net(n);
    for (const auto &a : arcs)
        net.addArc(a.u, a.v, a.cap);
    return net;
}

// Brute-force min cut: enumerate every node bipartition with s on one
// side and t on the other; cost = capacity crossing S -> T.
Capacity
bruteMinCut(int n, const std::vector<ArcSpec> &arcs, int s, int t)
{
    Capacity best = kInfCapacity;
    for (int mask = 0; mask < (1 << n); ++mask) {
        if (!(mask & (1 << s)) || (mask & (1 << t)))
            continue;
        Capacity cost = 0;
        for (const auto &a : arcs) {
            if ((mask & (1 << a.u)) && !(mask & (1 << a.v)))
                cost += a.cap;
        }
        best = std::min(best, cost);
    }
    return best;
}

TEST(MaxFlow, SingleArc)
{
    auto net = makeNetwork(2, {{0, 1, 5}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 1), 5);
    auto cut = mf.minCutArcs();
    ASSERT_EQ(cut.size(), 1u);
    EXPECT_EQ(net.arcTail(cut[0]), 0);
    EXPECT_EQ(net.arcHead(cut[0]), 1);
}

TEST(MaxFlow, Disconnected)
{
    auto net = makeNetwork(3, {{0, 1, 5}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 2), 0);
    EXPECT_TRUE(mf.minCutArcs().empty());
}

TEST(MaxFlow, ClassicDiamond)
{
    // s=0, t=3; two paths of caps (3,2) and (2,3) plus cross arc.
    auto net = makeNetwork(4, {{0, 1, 3},
                               {0, 2, 2},
                               {1, 3, 2},
                               {2, 3, 3},
                               {1, 2, 5}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 3), 5);
}

TEST(MaxFlow, InfiniteArcsAvoidedInCut)
{
    // s -> a (inf), a -> b (7), b -> t (inf): the only finite cut is
    // the middle arc.
    auto net = makeNetwork(4, {{0, 1, kInfCapacity},
                               {1, 2, 7},
                               {2, 3, kInfCapacity}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 3), 7);
    EXPECT_TRUE(mf.finite());
    auto cut = mf.minCutArcs();
    ASSERT_EQ(cut.size(), 1u);
    EXPECT_EQ(net.arcCapacity(cut[0]), 7);
}

TEST(MaxFlow, NoFiniteCut)
{
    auto net = makeNetwork(2, {{0, 1, kInfCapacity}});
    MaxFlow mf(net);
    mf.solve(0, 1);
    EXPECT_FALSE(mf.finite());
}

TEST(MaxFlow, ResetAllowsResolve)
{
    auto net = makeNetwork(2, {{0, 1, 9}});
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 1), 9);
    mf.reset();
    EXPECT_EQ(mf.solve(0, 1), 9);
}

TEST(MaxFlow, RemoveArcZeroesCapacity)
{
    auto net = makeNetwork(2, {{0, 1, 9}});
    net.removeArc(0);
    MaxFlow mf(net);
    EXPECT_EQ(mf.solve(0, 1), 0);
}

// The cut returned must (a) separate s from t when its arcs are
// removed and (b) have total capacity equal to the max flow
// (max-flow/min-cut duality).
TEST(MaxFlow, PropertyCutMatchesBruteForce)
{
    Rng rng(777);
    for (int trial = 0; trial < 80; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBelow(7));
        std::vector<ArcSpec> arcs;
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                if (u != v && rng.nextBool(0.4)) {
                    arcs.push_back(
                        {u, v, static_cast<Capacity>(rng.nextBelow(20))});
                }
            }
        }
        int s = 0, t = n - 1;
        auto net = makeNetwork(n, arcs);
        MaxFlow mf(net);
        Capacity flow = mf.solve(s, t);
        Capacity brute = bruteMinCut(n, arcs, s, t);
        ASSERT_EQ(flow, brute) << "trial " << trial;

        auto cut = mf.minCutArcs();
        Capacity cut_cost = 0;
        for (int a : cut)
            cut_cost += net.arcCapacity(a);
        ASSERT_EQ(cut_cost, flow) << "duality violated, trial " << trial;

        // Removing the cut arcs must disconnect t from s.
        FlowNetwork pruned(n);
        for (size_t i = 0; i < arcs.size(); ++i) {
            if (std::find(cut.begin(), cut.end(), static_cast<int>(i)) ==
                cut.end()) {
                pruned.addArc(arcs[i].u, arcs[i].v, arcs[i].cap);
            }
        }
        MaxFlow check(pruned);
        ASSERT_EQ(check.solve(s, t), 0) << "cut does not separate";
    }
}

// Randomized incremental sequences: a long run of arc retunes,
// removals, and revivals applied through resolve() must track a
// from-scratch solve of the same capacitated network exactly — flow
// value, source-side min cut, and sink-side min cut (each unique
// across all max flows, so "exactly" is well-defined).
TEST(MaxFlow, RandomIncrementalSequences)
{
    Rng rng(0xC0C0);
    const int n = 8;
    std::vector<ArcSpec> arcs;
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            if (u != v && rng.nextBool(0.35)) {
                // Zero-cap arcs participate too: a later retune
                // "adds" them (resolve has no topology changes, so
                // additions are pre-created dormant arcs).
                arcs.push_back(
                    {u, v, static_cast<Capacity>(rng.nextBelow(25))});
            }
        }
    }
    ASSERT_GE(arcs.size(), 8u);
    const int s = 0, t = n - 1;

    auto net = makeNetwork(n, arcs);
    MaxFlow warm(net);
    warm.solve(s, t);

    std::vector<Capacity> model_cap;
    std::vector<bool> model_removed(arcs.size(), false);
    for (const auto &a : arcs)
        model_cap.push_back(a.cap);

    for (int step = 0; step < 120; ++step) {
        std::vector<ArcDelta> deltas;
        int k = 1 + static_cast<int>(rng.nextBelow(3));
        for (int i = 0; i < k; ++i) {
            int a = static_cast<int>(rng.nextBelow(arcs.size()));
            ArcDelta d;
            d.arc = a;
            if (rng.nextBelow(4) == 0) { // remove
                d.remove = true;
                model_removed[a] = true;
            } else { // retune (revives a removed arc)
                d.cap = static_cast<Capacity>(rng.nextBelow(25));
                model_removed[a] = false;
                model_cap[a] = d.cap;
            }
            deltas.push_back(d);
        }
        Capacity warm_flow = warm.resolve(deltas);

        // From-scratch reference on the same capacitated network.
        FlowNetwork fresh(n);
        for (size_t a = 0; a < arcs.size(); ++a)
            fresh.addArc(arcs[a].u, arcs[a].v, model_cap[a]);
        for (size_t a = 0; a < arcs.size(); ++a) {
            if (model_removed[a])
                fresh.removeArc(static_cast<int>(a));
        }
        MaxFlow cold(fresh);
        Capacity cold_flow = cold.solve(s, t);

        ASSERT_EQ(warm_flow, cold_flow) << "step " << step;
        ASSERT_EQ(warm.minCutArcs(CutSide::Source),
                  cold.minCutArcs(CutSide::Source))
            << "step " << step;
        ASSERT_EQ(warm.minCutArcs(CutSide::Sink),
                  cold.minCutArcs(CutSide::Sink))
            << "step " << step;
    }
}

// The reported cuts must not depend on solve history: a warm solver
// that wandered through other capacity assignments and came back must
// report the same cuts as a cold solve of the original network.
TEST(MaxFlow, CutIndependentOfSolveHistory)
{
    const std::vector<ArcSpec> arcs = {{0, 1, 3}, {0, 2, 2}, {1, 3, 2},
                                       {2, 3, 3}, {1, 2, 5}};
    auto cold_net = makeNetwork(4, arcs);
    MaxFlow cold(cold_net);
    Capacity cold_flow = cold.solve(0, 3);

    auto warm_net = makeNetwork(4, arcs);
    MaxFlow warm(warm_net);
    warm.solve(0, 3);
    // Detour: widen one arc, choke another, then restore both.
    warm.resolve({{2, 9, false}, {3, 1, false}});
    Capacity warm_flow = warm.resolve({{2, 2, false}, {3, 3, false}});

    EXPECT_EQ(warm_flow, cold_flow);
    EXPECT_EQ(warm.minCutArcs(CutSide::Source),
              cold.minCutArcs(CutSide::Source));
    EXPECT_EQ(warm.minCutArcs(CutSide::Sink),
              cold.minCutArcs(CutSide::Sink));
}

} // namespace
} // namespace gmt
