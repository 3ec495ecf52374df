#include "pdg/pdg.hpp"

#include "support/error.hpp"

namespace gmt
{

Pdg::Pdg(const Function &f) : func_(&f)
{
    from_.resize(f.numInstrs());
    to_.resize(f.numInstrs());
}

void
Pdg::appendArc(const PdgArc &arc)
{
    GMT_ASSERT(arc.src != kNoInstr && arc.dst != kNoInstr);
#ifndef NDEBUG
    for (int a : from_[arc.src]) {
        const PdgArc &e = arcs_[a];
        GMT_ASSERT(!(e.dst == arc.dst && e.kind == arc.kind &&
                     e.reg == arc.reg),
                   "duplicate PDG arc ", arc.src, " -> ", arc.dst);
    }
#endif
    int id = static_cast<int>(arcs_.size());
    arcs_.push_back(arc);
    from_[arc.src].push_back(id);
    to_[arc.dst].push_back(id);
}

Digraph
Pdg::asDigraph() const
{
    // Keep the first arc of each (src, dst): a per-source stamp over
    // the from_ lists (ascending arc ids) finds them without
    // Digraph::addEdge's linear duplicate scan. Appending the kept
    // arcs in arc order gives the succs/preds lists addEdge would.
    const int n = func_->numInstrs();
    std::vector<char> first(arcs_.size(), 0);
    std::vector<InstrId> seen_from(n, kNoInstr);
    for (InstrId u = 0; u < n; ++u) {
        for (int a : from_[u]) {
            InstrId v = arcs_[a].dst;
            if (seen_from[v] != u) {
                seen_from[v] = u;
                first[a] = 1;
            }
        }
    }
    Digraph g(n);
    for (size_t a = 0; a < arcs_.size(); ++a) {
        if (!first[a])
            continue;
        g.succs_[arcs_[a].src].push_back(arcs_[a].dst);
        g.preds_[arcs_[a].dst].push_back(arcs_[a].src);
        ++g.numEdges_;
    }
    return g;
}

} // namespace gmt
