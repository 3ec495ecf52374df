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

#include <span>
#include <tuple>
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
 * a pure function of the arc's profile weight and the *current*
 * relevant-branch sets: infinite while the block is irrelevant to the
 * source thread, else the weight plus the §3.1.2 penalty of the
 * block. The weight is read from the current profile too, so a graph
 * retained across calls with different profiles (the autotuner's
 * stall-boosted re-cuts) gets that call's costs.
 */
struct ArcCost
{
    BlockId block = kNoBlock;

    /** The weight is edgeWeight(edge_from, edge_slot) for an arc
     *  between blocks, else blockWeight(block). */
    BlockId edge_from = kNoBlock;
    int edge_slot = -1;

    Capacity
    base(const EdgeProfile &profile) const
    {
        return static_cast<Capacity>(
            edge_slot < 0 ? profile.blockWeight(block)
                          : profile.edgeWeight(edge_from, edge_slot));
    }
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

/** One instruction that defines or uses a register. */
struct RegOccurrence
{
    BlockId block = kNoBlock;
    int pos = 0;
    InstrId instr = kNoInstr;
    bool defines = false;
    bool uses = false;
};

/**
 * Per register, the instructions that define or use it, ascending by
 * (block, pos), one entry per instruction. Built once per
 * cocoOptimize call; a register graph build decodes instructions only
 * at its register's occurrences, and every other position just
 * carries the live/safe bit along.
 */
class RegOccurrences
{
  public:
    explicit RegOccurrences(const Function &f);

    std::span<const RegOccurrence>
    of(Reg r) const
    {
        return {occ_.data() + start_[r], occ_.data() + start_[r + 1]};
    }

  private:
    std::vector<int> start_; ///< numRegs + 1 offsets into occ_
    std::vector<RegOccurrence> occ_;
};

/**
 * Per-block memo of the two cost terms that depend on the
 * relevant-branch sets: Property 2's source relevance (reads
 * relevant[ts]) and the §3.1.2 penalty (reads relevant[tt]). It also
 * folds in one call's profile and penalty switch, so it lives for one
 * cocoOptimize call. The memo is keyed on (ts, tt) and the versions
 * of relevant[ts] and relevant[tt] (FlowGraphInputs::rel_version):
 * the builders and diffFlowGraphCosts start a new epoch when the key
 * differs from the last one, and a block's entry is current iff its
 * stamp equals the epoch.
 */
struct BlockCostMemo
{
    std::tuple<int, int, uint64_t, uint64_t> key{-1, -1, 0, 0};
    uint64_t epoch = 0;
    std::vector<uint64_t> stamp;
    std::vector<char> relevant_src;
    std::vector<Capacity> penalty;
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

    /** The function's register occurrences. Required by
     *  buildRegisterFlowGraph. */
    const RegOccurrences *occurrences;

    /** Per-thread version counters, one more each time the owner
     *  grows that thread's relevant set. Required. */
    const std::vector<uint64_t> *rel_version;

    /** The call's block-cost memo, keyed on rel_version. Required. */
    BlockCostMemo *cost_memo;

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

    /** Register builds: the region's blocks, ascending, and each
     *  one's [begin, end) range in the register's occurrence list. */
    std::vector<BlockId> region;
    std::vector<std::pair<int, int>> region_occ;
};

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
 * function would build. Within the region, instructions are decoded
 * only at r's occurrences (FlowGraphInputs::occurrences).
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
                        const FlowGraph &fg,
                        std::vector<ArcDelta> &deltas);

} // namespace gmt

#endif // GMT_COCO_FLOW_GRAPH_HPP
