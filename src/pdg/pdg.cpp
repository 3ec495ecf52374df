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

} // namespace gmt
