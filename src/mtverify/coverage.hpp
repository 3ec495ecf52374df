#ifndef GMT_MTVERIFY_COVERAGE_HPP
#define GMT_MTVERIFY_COVERAGE_HPP

/**
 * @file
 * Dependence coverage: the shared half of COCO's Properties 2-3
 * validation and MTCG's Theorem 1. Every cross-thread register or
 * memory dependence must be cut by a matching produce/consume on every
 * instruction-level CFG path from its source to its destination.
 *
 * An arc's barrier is the union of the points of every placement with
 * the same (source thread, destination thread, kind, register) key. A
 * path escapes if it reaches the point just before the destination
 * without crossing a barrier point. Along the way a redefinition of
 * the carried register kills the dependence: the path still reaches
 * that instruction's point but goes no further.
 *
 * The check is batched. Arcs are grouped by barrier key, and each
 * key's barrier is marked once in a per-instruction bitmap. Per key,
 * every block caches how far a walk entering at position 0 gets and
 * whether it leaves the block. One block-granular walk per (key,
 * source instruction) then answers every destination of that source.
 * Cost: O(arcs log arcs + plan points + sum over keys of the
 * instructions in the blocks the walks reach + walks x reached CFG
 * edges).
 */

#include <vector>

#include "mtcg/comm_plan.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"

namespace gmt
{

/**
 * Indices into @p pdg.arcs(), ascending, of the cross-thread non-control
 * arcs that have a path from source to destination crossing no matching
 * placement point of @p plan. Plan points outside @p f are ignored. A
 * walk can never visit them, so they cannot cut anything.
 */
std::vector<int> uncoveredArcs(const Function &f, const Pdg &pdg,
                               const ThreadPartition &partition,
                               const CommPlan &plan);

} // namespace gmt

#endif // GMT_MTVERIFY_COVERAGE_HPP
