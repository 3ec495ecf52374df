#ifndef GMT_ANALYSIS_MEM_DEP_HPP
#define GMT_ANALYSIS_MEM_DEP_HPP

/**
 * @file
 * Memory dependence analysis over alias classes.
 *
 * The paper's compiler consumes a context-sensitive points-to analysis
 * [14]; this library substitutes alias-class annotations carried by
 * every Load/Store (see DESIGN.md). Two accesses may alias iff their
 * classes are equal or either is kAliasAny. A dependence arc i -> j is
 * emitted when i and j may alias, at least one writes, and a CFG path
 * from i to j exists (including loop-carried paths).
 */

#include <vector>

#include "ir/function.hpp"
#include "support/bit_vector.hpp"

namespace gmt
{

/** Kind of a memory dependence. */
enum class MemDepKind { Flow, Anti, Output };

/** One memory dependence arc. */
struct MemDep
{
    InstrId src = kNoInstr;
    InstrId dst = kNoInstr;
    MemDepKind kind = MemDepKind::Flow;
};

/**
 * Block-level reachability over CFG paths of one or more edges: @p a
 * reaches @p b iff a path a -> ... -> b exists, so a block reaches
 * itself exactly when it lies on a cycle. Built in one
 * reverse-topological pass over the SCC condensation; the blocks of
 * one SCC share one reach set.
 */
class BlockReachability
{
  public:
    explicit BlockReachability(const Function &f);

    bool
    reaches(BlockId a, BlockId b) const
    {
        return reach_[scc_of_[a]].test(b);
    }

  private:
    std::vector<int> scc_of_;
    std::vector<BitVector> reach_; ///< per SCC
};

/** True if accesses with classes @p a and @p b may alias. */
bool mayAlias(AliasClass a, AliasClass b);

/**
 * Compute all memory dependence arcs of @p f. Each (src, dst) pair
 * appears at most once, grouped by src in block order.
 *
 * Conservative in time (quadratic in memory instructions) but the
 * regions the scheduler handles are single functions.
 */
std::vector<MemDep> computeMemDeps(const Function &f);

} // namespace gmt

#endif // GMT_ANALYSIS_MEM_DEP_HPP
