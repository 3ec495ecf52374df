#ifndef GMT_GRAPH_MULTI_CUT_HPP
#define GMT_GRAPH_MULTI_CUT_HPP

/**
 * @file
 * Multi-source-sink (multicommodity) min-cut heuristic.
 *
 * Memory-synchronization placement needs every memory-dependence
 * source disconnected from its *own* targets only (paper §3.1.3), which
 * is the NP-hard multi-pair cut problem. The paper's heuristic is used
 * here: solve each pair optimally in sequence, removing each pair's cut
 * arcs from the graph so earlier cuts help disconnect later pairs.
 */

#include <utility>
#include <vector>

#include "graph/max_flow.hpp"

namespace gmt
{

/** Result of a multi-pair cut. */
struct MultiCutResult
{
    /** Union of arc ids cut across all pairs (deduplicated). */
    std::vector<int> arcs;

    /** Total original capacity of the cut arcs. */
    Capacity cost = 0;

    /** True if every pair admitted a finite cut. */
    bool finite = true;
};

/**
 * Disconnect each (source, sink) pair in @p pairs by cutting arcs of
 * @p net. Mutates the network (cut arcs are removed).
 *
 * @param net the flow network (consumed: arcs get removed).
 * @param pairs source/sink node pairs to disconnect.
 * @param side which equal-cost cut to take per pair.
 * @param arena optional solver to reuse (its traversal scratch
 *        survives across the per-pair solves and across calls); a
 *        local solver is used when null.
 */
MultiCutResult multiPairMinCut(FlowNetwork &net,
                               const std::vector<std::pair<int, int>> &pairs,
                               CutSide side = CutSide::Sink,
                               MaxFlow *arena = nullptr);

/**
 * Baseline for the ablation bench: connect a super-source to all pair
 * sources and all pair sinks to a super-sink, then take one global
 * single-pair cut. Over-constrains the problem (disconnects every
 * source from every sink) but is a valid placement.
 *
 * @param arena optional solver to reuse, as in multiPairMinCut().
 * @param super_s_out / @param super_t_out optional: receive the
 *        super-terminal node ids so a caller retaining @p net can
 *        warm-start the same single-pair problem later via
 *        MaxFlow::attachSolved() + resolve().
 */
MultiCutResult superPairMinCut(FlowNetwork &net,
                               const std::vector<std::pair<int, int>> &pairs,
                               MaxFlow *arena = nullptr,
                               int *super_s_out = nullptr,
                               int *super_t_out = nullptr);

} // namespace gmt

#endif // GMT_GRAPH_MULTI_CUT_HPP
