#ifndef GMT_GRAPH_SCC_HPP
#define GMT_GRAPH_SCC_HPP

/**
 * @file
 * Strongly connected components (iterative Tarjan) and the condensation
 * DAG. DSWP partitions the PDG's condensation, so both live here.
 */

#include <algorithm>
#include <vector>

#include "graph/digraph.hpp"

namespace gmt
{

/** Result of an SCC decomposition. */
struct SccResult
{
    /** Component index of each node; components are numbered so that
     *  every edge of the condensation goes from a lower-numbered
     *  component to a higher-numbered one (topological order). */
    std::vector<int> component;

    /** Members of each component, in input-node order. */
    std::vector<std::vector<NodeId>> members;

    int numComponents() const { return static_cast<int>(members.size()); }
};

/** Decompose @p g into strongly connected components. */
SccResult computeSccs(const Digraph &g);

/**
 * The same decomposition over an implicit graph of @p n nodes:
 * @p succs_of(u) returns u's successors as a sized random-access range
 * of NodeId. A repeated successor changes nothing, so a multigraph
 * (the PDG's arc lists) gives the SCCs of its simple graph without
 * building one.
 */
template <typename Succs>
SccResult
computeSccs(int n, const Succs &succs_of)
{
    SccResult result;
    result.component.assign(n, -1);

    // Iterative Tarjan. Nodes are pushed on tarjan_stack in discovery
    // order; a component is popped when its root finishes.
    std::vector<int> index(n, -1), lowlink(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<NodeId> tarjan_stack;
    int next_index = 0;

    struct Frame
    {
        NodeId node;
        size_t succ_pos;
    };
    std::vector<Frame> call_stack;

    for (NodeId start = 0; start < n; ++start) {
        if (index[start] != -1)
            continue;
        call_stack.push_back({start, 0});
        index[start] = lowlink[start] = next_index++;
        tarjan_stack.push_back(start);
        on_stack[start] = true;

        while (!call_stack.empty()) {
            Frame &frame = call_stack.back();
            NodeId u = frame.node;
            const auto &succs = succs_of(u);
            if (frame.succ_pos < succs.size()) {
                NodeId v = succs[frame.succ_pos++];
                if (index[v] == -1) {
                    index[v] = lowlink[v] = next_index++;
                    tarjan_stack.push_back(v);
                    on_stack[v] = true;
                    call_stack.push_back({v, 0});
                } else if (on_stack[v]) {
                    lowlink[u] = std::min(lowlink[u], index[v]);
                }
            } else {
                if (lowlink[u] == index[u]) {
                    // u is a root: pop its component.
                    std::vector<NodeId> comp;
                    NodeId w;
                    do {
                        w = tarjan_stack.back();
                        tarjan_stack.pop_back();
                        on_stack[w] = false;
                        result.component[w] =
                            static_cast<int>(result.members.size());
                        comp.push_back(w);
                    } while (w != u);
                    std::sort(comp.begin(), comp.end());
                    result.members.push_back(std::move(comp));
                }
                call_stack.pop_back();
                if (!call_stack.empty()) {
                    NodeId parent = call_stack.back().node;
                    lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
                }
            }
        }
    }

    // Tarjan emits components in reverse topological order; renumber so
    // component ids follow topological order of the condensation.
    int num_comps = result.numComponents();
    for (auto &c : result.component)
        c = num_comps - 1 - c;
    std::reverse(result.members.begin(), result.members.end());
    return result;
}


/** Build the condensation DAG of @p g given its SCC decomposition. */
Digraph condense(const Digraph &g, const SccResult &sccs);

} // namespace gmt

#endif // GMT_GRAPH_SCC_HPP
