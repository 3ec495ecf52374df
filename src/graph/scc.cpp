#include "graph/scc.hpp"

#include "support/error.hpp"

namespace gmt
{

SccResult
computeSccs(const Digraph &g)
{
    return computeSccs(g.numNodes(),
                       [&g](NodeId u) -> const std::vector<NodeId> & {
                           return g.succs(u);
                       });
}

Digraph
condense(const Digraph &g, const SccResult &sccs)
{
    Digraph dag(sccs.numComponents());
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        for (NodeId v : g.succs(u)) {
            int cu = sccs.component[u];
            int cv = sccs.component[v];
            if (cu != cv)
                dag.addEdge(cu, cv);
        }
    }
    GMT_ASSERT(dag.isAcyclic(), "condensation must be a DAG");
    return dag;
}

} // namespace gmt
