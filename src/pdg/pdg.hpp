#ifndef GMT_PDG_PDG_HPP
#define GMT_PDG_PDG_HPP

/**
 * @file
 * The Program Dependence Graph [5]: instruction-granularity nodes with
 * register (flow), memory, and control dependence arcs. "The PDG
 * contains all the dependences that need to be honored in order to
 * preserve the semantics of the original program" — every GMT
 * partitioner runs on it, and MTCG/COCO communicate exactly its
 * inter-thread arcs (paper Property 1).
 */

#include <utility>
#include <vector>

#include "analysis/mem_dep.hpp"
#include "ir/function.hpp"

namespace gmt
{

/** Kind of a PDG arc. */
enum class DepKind { Register, Memory, Control };

/** One dependence arc. */
struct PdgArc
{
    InstrId src = kNoInstr;
    InstrId dst = kNoInstr;
    DepKind kind = DepKind::Register;

    /** The register carried, for DepKind::Register. */
    Reg reg = kNoReg;

    /** Flow/anti/output, for DepKind::Memory. */
    MemDepKind mem_kind = MemDepKind::Flow;
};

/** Program dependence graph of one function. */
class Pdg
{
  public:
    explicit Pdg(const Function &f);

    const Function &func() const { return *func_; }

    int numArcs() const { return static_cast<int>(arcs_.size()); }
    const PdgArc &arc(int a) const { return arcs_[a]; }
    const std::vector<PdgArc> &arcs() const { return arcs_; }

    /** Arc indices leaving / entering an instruction. */
    const std::vector<int> &arcsFrom(InstrId i) const { return from_[i]; }
    const std::vector<int> &arcsTo(InstrId i) const { return to_[i]; }

    /**
     * Append an arc. The caller guarantees that no arc with the same
     * (src, dst, kind, reg) is present; Debug builds assert it.
     */
    void appendArc(const PdgArc &arc);

    /** Pre-size the arc list for @p n arcs in total. */
    void reserveArcs(int n) { arcs_.reserve(n); }

    /**
     * The function's memory dependences as computeMemDeps derived
     * them. Kept apart from the arc list, so the happens-before
     * engine's obligations do not shrink when the arcs are corrupted.
     */
    const std::vector<MemDep> &memDeps() const { return mem_deps_; }
    void setMemDeps(std::vector<MemDep> deps) { mem_deps_ = std::move(deps); }

  private:
    const Function *func_;
    std::vector<PdgArc> arcs_;
    std::vector<std::vector<int>> from_, to_;
    std::vector<MemDep> mem_deps_;
};

} // namespace gmt

#endif // GMT_PDG_PDG_HPP
