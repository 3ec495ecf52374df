#ifndef GMT_COCO_FLOW_GRAPH_HPP
#define GMT_COCO_FLOW_GRAPH_HPP

/**
 * @file
 * Construction of the min-cut flow graphs G_f (paper §3.1).
 *
 * Nodes are instructions (plus block-entry nodes and, for registers,
 * the special S/T nodes); arcs are the control-flow steps between
 * adjacent program points, so *cutting an arc is placing a
 * produce/consume pair at a program point*. Costs are profile
 * weights, plus §3.1.2's control-flow penalties for points whose
 * execution condition would force new branches into the target
 * thread, plus infinity where a placement would violate Safety
 * (Property 3) or source-thread relevance (Property 2).
 *
 * The builders write into a caller-owned FlowGraph and scratch
 * buffers so that a solver working through thousands of problems
 * (coco/coco.cpp) reuses one arena per worker instead of allocating
 * per problem.
 */

#include <utility>
#include <vector>

#include "analysis/control_dep.hpp"
#include "analysis/edge_profile.hpp"
#include "coco/safety.hpp"
#include "coco/thread_liveness.hpp"
#include "graph/max_flow.hpp"
#include "ir/function.hpp"
#include "partition/partition.hpp"

namespace gmt
{

/**
 * How one arc's capacity was derived, recorded at build time so a
 * retained graph's costs can be re-derived without rebuilding its
 * topology (diffFlowGraphCosts). @c block == kNoBlock pins the arc:
 * its cost can never change across Algorithm 2 iterations (special
 * S/T arcs, and register points that fail Safety — the safety
 * analysis depends only on the partition). Every other arc's cost is
 * a pure function of (block, base) and the *current* relevant-branch
 * sets: infinite while the block is irrelevant to the source thread,
 * else base plus the §3.1.2 penalty of the block.
 */
struct ArcCost
{
    BlockId block = kNoBlock;
    Capacity base = 0;
};

/** A built flow graph plus the arc -> program-point mapping. */
struct FlowGraph
{
    FlowNetwork net{0};

    /** Register case: super source/sink. */
    int source = -1;
    int sink = -1;

    /** Memory case: one (source, sink) node pair per dependence arc. */
    std::vector<std::pair<int, int>> pairs;

    /** arc id -> the program point cutting it selects; special arcs
     *  map to {kNoBlock, -1}. */
    std::vector<ProgramPoint> arc_points;

    /** arc id -> cost derivation, for incremental cost refresh. */
    std::vector<ArcCost> arc_cost;

    /** True if there was nothing to build (no defs or no uses). */
    bool trivial = false;

    /** Rewind for reuse, keeping the network's arc storage. */
    void
    clear()
    {
        net.reset(0);
        source = -1;
        sink = -1;
        pairs.clear();
        arc_points.clear();
        arc_cost.clear();
        trivial = false;
    }
};

/** Inputs shared by both builders. */
struct FlowGraphInputs
{
    const Function *f;
    const ControlDependence *cd;
    const EdgeProfile *profile;
    const ThreadPartition *partition;

    /** Per-thread relevant-branch sets (current Algorithm 2 state). */
    const std::vector<BitVector> *relevant;

    /**
     * Per-block transitive control dependences, computed once per
     * cocoOptimize call (ControlDependence::transitiveDeps per block
     * is too hot to redo per problem). Required.
     */
    const std::vector<std::vector<BlockId>> *trans_deps;

    /**
     * Per-register defining blocks (defBlocksByReg), computed once per
     * cocoOptimize call: the def term of a register graph's region.
     * Required by buildRegisterFlowGraph.
     */
    const std::vector<std::vector<BlockId>> *def_blocks;

    /** Apply §3.1.2 control-flow penalties? */
    bool penalties = true;
};

/**
 * Reusable working memory for the builders. One instance per worker;
 * inner vectors keep their capacity across problems.
 */
struct FlowGraphScratch
{
    /** Per-block rows; a register build rewrites only its region's. */
    std::vector<std::vector<char>> point_live;
    std::vector<std::vector<char>> point_safe;
    std::vector<int> entry_node;
    std::vector<std::vector<int>> instr_node;

    /** Register builds: the region's blocks, ascending. */
    std::vector<BlockId> region;

    /** Per-block cost terms, used by diffFlowGraphCosts(). */
    std::vector<char> block_relevant_src;
    std::vector<Capacity> block_penalty;
};

/**
 * Per register, the distinct blocks defining it, ascending
 * (FlowGraphInputs::def_blocks).
 */
std::vector<std::vector<BlockId>> defBlocksByReg(const Function &f);

/**
 * Build G_f for register @p r from thread @p ts to thread @p tt
 * (§3.1.1 + §3.1.2) into @p out. @p safety is the SafetyAnalysis of
 * @p ts; @p live the ThreadLiveness of @p tt (with its current
 * relevant branches).
 *
 * Only r's region is visited: the blocks where r is live-in or
 * live-out w.r.t. @p tt, or defined. Every other block has no live
 * point and so no node or arc; the graph (node ids, arc order,
 * capacities, arc_points, arc_cost) is the one a walk over the whole
 * function would build.
 */
void buildRegisterFlowGraph(const FlowGraphInputs &in,
                            const SafetyAnalysis &safety,
                            const ThreadLiveness &live, Reg r, int ts,
                            int tt, FlowGraph &out,
                            FlowGraphScratch &scratch);

/**
 * Build G_f for all memory dependences from @p ts to @p tt (§3.1.3)
 * into @p out: whole-region graph with one source/sink pair per
 * dependence.
 */
void buildMemoryFlowGraph(
    const FlowGraphInputs &in,
    const std::vector<std::pair<InstrId, InstrId>> &dep_pairs, int ts,
    int tt, FlowGraph &out, FlowGraphScratch &scratch);

/**
 * Diff mode for retained graphs: recompute every non-pinned arc cost
 * of @p fg from the *current* relevant-branch sets in @p in (via the
 * ArcCost records written at build time) and emit one ArcDelta per
 * arc whose cost differs from the capacity currently stored in the
 * network. The graph's topology must be known-unchanged by the
 * caller (register graphs: same liveness snapshot version; memory
 * graphs: topology is fixed by the function) — this routine only
 * refreshes costs. Together with the fact that relevant sets grow
 * monotonically (costs only ever move from infinite to finite or
 * shrink their penalty term), the deltas feed MaxFlow::resolve()
 * without invalidating the retained residual.
 */
void diffFlowGraphCosts(const FlowGraphInputs &in, int ts, int tt,
                        const FlowGraph &fg, FlowGraphScratch &scratch,
                        std::vector<ArcDelta> &deltas);

} // namespace gmt

#endif // GMT_COCO_FLOW_GRAPH_HPP
