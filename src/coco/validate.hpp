#ifndef GMT_COCO_VALIDATE_HPP
#define GMT_COCO_VALIDATE_HPP

/**
 * @file
 * Independent validation of a communication plan against the paper's
 * Properties 1-3 plus coverage: every cross-thread dependence must be
 * cut by its placement's points on every CFG path. This module shares
 * no code with the optimizer's graph construction, so it catches
 * optimizer bugs rather than reproducing them.
 */

#include <string>
#include <vector>

#include "analysis/control_dep.hpp"
#include "coco/safety.hpp"
#include "mtcg/comm_plan.hpp"
#include "mtverify/diag.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"

namespace gmt
{

/**
 * Analyses of the same (function, PDG, partition, plan) that a caller
 * already holds, so validation reuses them. Null = computed here.
 */
struct PlanCheckInputs
{
    /** safetyPerThread(f, partition). */
    const std::vector<SafetyAnalysis> *safety = nullptr;

    /** uncoveredArcs(f, pdg, partition, plan). */
    const std::vector<int> *uncovered = nullptr;
};

/**
 * Check @p plan for @p partition:
 *  - Safety (Property 3): every register placement point holds the
 *    source thread's latest value of the register;
 *  - Source relevance (Property 2): every point is a relevant point
 *    of the source thread;
 *  - Coverage: for every cross-thread register arc (def -> use) and
 *    memory arc (src -> dst), every instruction-level CFG path from
 *    source to destination crosses one of the placement's points.
 *
 * Findings use the mtverify diagnostic space (codes PlanInvalidPoint,
 * PlanSourceIrrelevant, PlanUnsafePoint, PlanUncoveredArc) with
 * block/pos coordinates of the offending point and, for coverage, the
 * destination instruction of the uncovered arc. Exact repeats are
 * deduplicated. @return findings (empty = valid).
 */
std::vector<MtvDiag> validatePlanDiags(const Function &f, const Pdg &pdg,
                                       const ThreadPartition &partition,
                                       const ControlDependence &cd,
                                       const CommPlan &plan,
                                       const PlanCheckInputs &shared = {});

/** validatePlanDiags rendered one string per finding (callers that
 *  only print). Empty = valid. */
std::vector<std::string> validatePlan(const Function &f, const Pdg &pdg,
                                      const ThreadPartition &partition,
                                      const ControlDependence &cd,
                                      const CommPlan &plan,
                                      const PlanCheckInputs &shared = {});

} // namespace gmt

#endif // GMT_COCO_VALIDATE_HPP
