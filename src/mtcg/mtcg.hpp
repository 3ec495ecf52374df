#ifndef GMT_MTCG_MTCG_HPP
#define GMT_MTCG_MTCG_HPP

/**
 * @file
 * Multi-Threaded Code Generation (Algorithm 1 of [16], the paper's
 * §2.1), generalized to consume any CommPlan:
 *
 *  1. per thread, create a CFG containing its needed blocks;
 *  2. insert the thread's instructions at their original positions;
 *  3. insert produce/consume pairs at the plan's points;
 *  4. replicate relevant branches and fix branch targets through the
 *     post-dominance relation ([16] §2.2.3).
 *
 * With defaultMtcgPlan() this is the original MTCG; with a COCO plan
 * it is the paper's "slightly modified version of MTCG".
 */

#include "mtcg/comm_plan.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

/** Options for code generation. */
struct MtcgOptions
{
    /** Per-queue capacity recorded in the emitted program. */
    int queue_capacity = 32;
};

/**
 * Generate one function per thread. Placement i communicates on
 * queue i; mtcg/queue_alloc.hpp multiplexes the result onto an
 * architected queue budget (allocateQueues + remapQueues).
 *
 * @param f          verified original function (critical edges split).
 * @param pdg        its PDG (used for sanity checks only).
 * @param partition  instruction-to-thread assignment.
 * @param plan       communication placements (e.g. defaultMtcgPlan).
 * @param cd         control dependence of @p f.
 */
MtProgram runMtcg(const Function &f, const Pdg &pdg,
                  const ThreadPartition &partition, const CommPlan &plan,
                  const ControlDependence &cd,
                  const MtcgOptions &opts = {});

} // namespace gmt

#endif // GMT_MTCG_MTCG_HPP
