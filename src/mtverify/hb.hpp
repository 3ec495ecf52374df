#ifndef GMT_MTVERIFY_HB_HPP
#define GMT_MTVERIFY_HB_HPP

/**
 * @file
 * Theorem 4 of the MT verifier: race freedom via happens-before.
 *
 * The COCO memory-sync cut (and plain MTCG's source-point sync) is
 * supposed to guarantee that every pair of conflicting memory
 * operations assigned to different threads is *ordered* in every
 * execution. The other theorems prove arc coverage, queue balance,
 * and deadlock freedom — none of them proves ordering. This engine
 * does, over the emitted code alone:
 *
 *  - Every queue produce -> consume match is a cross-thread
 *    synchronization edge, for BOTH token kinds: a register produce
 *    orders memory just as well as a produce.sync does (the consumer
 *    cannot pass the consume before the producer executed the
 *    produce).
 *  - Within one original block's instance, those edges compose with
 *    intra-thread program order and queue-capacity back-edges into a
 *    per-block happens-before graph (the same per-block walk
 *    structure deadlock.cpp uses); its transitive closure is the
 *    intra-instance ordering relation.
 *  - Across block instances, ordering is propagated by a sync-chain
 *    walk over the original CFG: a set of "synchronized" threads
 *    grows monotonically along each path as produce->consume matches
 *    hand the ordering token from thread to thread, and block-level
 *    transfer matrices (derived from the per-block closures) apply
 *    one block's chains in a single step.
 *
 * Checked pairs are the cross-thread memory PDG arcs plus every
 * conflicting memory-operation pair of the Pdg's MemDep list, which
 * buildPdg computes once per function and keeps apart from the arcs
 * (so a corrupted arc list cannot silently shrink the obligation
 * set). An unordered pair is a data race; if
 * synchronization between the two threads exists but misses a path,
 * the sharper sync-on-wrong-path code fires instead. A memory-sync
 * placement between two threads with no conflicting pair at all is
 * flagged as redundant (warning).
 *
 * See DESIGN.md "Happens-before verification" for the relation
 * definition and the soundness argument for the per-block closure.
 */

#include <vector>

#include "mtcg/comm_plan.hpp"
#include "mtverify/diag.hpp"
#include "mtverify/thread_map.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

/** Aggregate counters for stats records (pass manager, gmt-lint). */
struct HbStats
{
    int pairs_checked = 0;   ///< distinct conflicting pairs examined
    int arcs_checked = 0;    ///< cross-thread memory PDG arcs seen
    int sync_placements = 0; ///< memory-sync placements examined
};

/**
 * Run the happens-before race check. @p plan is the witness used only
 * for the redundant-sync diagnostic; ordering itself is derived from
 * the emitted code via @p maps. Findings are appended to @p diags.
 */
HbStats checkHappensBefore(const Function &orig, const Pdg &pdg,
                           const ThreadPartition &partition,
                           const CommPlan &plan, const MtProgram &prog,
                           const std::vector<ThreadCodeMap> &maps,
                           std::vector<MtvDiag> &diags);

} // namespace gmt

#endif // GMT_MTVERIFY_HB_HPP
