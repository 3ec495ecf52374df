#ifndef GMT_OBS_PROVENANCE_HPP
#define GMT_OBS_PROVENANCE_HPP

/**
 * @file
 * Decision provenance: a structured record of *why* every scheduling
 * decision came out the way it did — which partitioner step placed
 * each instruction (and what the alternatives scored), which COCO cut
 * chose each communication point (and what each point cost in the
 * flow graph), and how the queue allocator multiplexed placements
 * onto architected queues.
 *
 * The record is strictly deterministic: the deciding algorithms fill
 * it during the run that makes the decisions, and they decide the
 * same way at any job count, cache state, and warm/cold max-flow, so
 * the record is byte-identical across all of them — the same
 * guarantee the plans themselves carry. The only execution-dependent
 * bits (whether a cut was solved warm or cold) live in fields
 * explicitly excluded from the canonical serialization.
 *
 * Sits below the partitioners / COCO / queue allocator in the library
 * graph (links gmt_ir only), so all three can fill it through an
 * optional out-parameter without new cycles.
 */

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace gmt
{

// ---------------------------------------------------------------------------
// Partitioner provenance.

/** One thread GREMIO scored while placing a unit. */
struct ThreadCandidate
{
    int thread = 0;

    /** Load already scheduled on the thread (profile-weighted). */
    uint64_t busy = 0;

    /** Dynamic cost of the cross-thread values the unit would consume
     *  if placed here (the edge weights that decided the placement). */
    uint64_t comm = 0;

    /** busy + unit work + comm: the list scheduler's objective. */
    uint64_t score = 0;

    bool chosen = false;

    bool operator==(const ThreadCandidate &) const = default;
};

/**
 * One atomic placement decision: a PDG SCC (DSWP component, or a
 * GREMIO unit after loop/cycle merging) assigned to a thread.
 */
struct UnitDecision
{
    int unit = 0;   ///< unit id (PartitionProvenance::unit_of values)
    int thread = 0; ///< chosen thread (DSWP: pipeline stage)
    int order = 0;  ///< position in the decision sequence

    uint64_t work = 0; ///< profile-weighted work of the unit
    int num_members = 0;
    InstrId first_instr = -1; ///< lowest member id (anchor)

    /** DSWP only: greedy fill accounting at the decision point. */
    uint64_t acc_before = 0; ///< stage weight before this unit landed
    uint64_t target = 0;     ///< per-stage weight target

    /** GREMIO only: every thread scored, chosen one flagged. */
    std::vector<ThreadCandidate> candidates;

    bool operator==(const UnitDecision &) const = default;
};

/** Everything the partitioner decided, per instruction and per unit. */
struct PartitionProvenance
{
    std::string algorithm; ///< "DSWP" | "GREMIO"
    int num_threads = 0;

    /** GREMIO unit-formation structure. */
    int loop_merges = 0;  ///< SCCs fused by the innermost-loop rule
    int cycle_merges = 0; ///< units fused to break inter-unit cycles

    std::vector<int> unit_of;   ///< [InstrId] -> unit id
    std::vector<int> thread_of; ///< [InstrId] -> final thread

    /** Decisions in the order they were taken. */
    std::vector<UnitDecision> units;

    bool operator==(const PartitionProvenance &) const = default;
};

// ---------------------------------------------------------------------------
// Placement (COCO / default MTCG) provenance.

/** Cost attributed to one chosen communication point. */
struct CutPointCost
{
    BlockId block = kNoBlock;
    int pos = 0;

    /**
     * COCO cuts: summed capacity of the min-cut arcs selecting this
     * point (profile weight + §3.1.2 penalties). Default placements:
     * the profile weight of the point (estimated dynamic executions).
     */
    int64_t cost = 0;

    /** Min-cut arcs mapped onto the point (0 for default rules). */
    int arcs = 0;

    bool operator==(const CutPointCost &) const = default;
};

/** Why one placement communicates where it does. */
struct PlacementDecision
{
    /** Index into CommPlan::placements; -1 for elided decisions
     *  (the cut proved no communication is needed). */
    int index = -1;

    bool is_mem = false; ///< memory sync vs register data
    Reg reg = kNoReg;    ///< register carried (registers only)
    int src_thread = 0;
    int dst_thread = 0;

    /**
     * The deciding rule:
     *  - "coco-cut": min-cut of the §3.1 flow graph chose the points;
     *  - "coco-default": COCO ran but fell back to the default
     *    def-point placement (trivial/empty cut);
     *  - "mtcg-default": Algorithm 1 (communicate after the source
     *    def; branch operands right before the branch).
     */
    std::string rule;

    /** Algorithm-2 iteration the final point set first appeared in
     *  (1-based; 0 for non-COCO rules). */
    int iteration = 0;

    /** Canonical cut-problem index within an iteration's problem
     *  sequence (-1 for non-COCO rules). */
    int problem = -1;

    int64_t cut_cost = 0; ///< min-cut value (COCO rules)
    int graph_nodes = 0;  ///< solved flow graph size
    int graph_arcs = 0;
    int num_deps = 0; ///< memory: dependences covered by the cut

    /** Per-point cost breakdown, sorted by (block, pos). */
    std::vector<CutPointCost> points;

    /**
     * Execution-only (NOT canonical, excluded from the byte-compared
     * serialization): the consumed cut was solved from a warm-started
     * retained graph. Varies with warm_start and solve interleaving.
     */
    bool exec_warm = false;

    bool operator==(const PlacementDecision &) const = default;
};

/** Everything the placement stage decided. */
struct PlacementProvenance
{
    std::string source; ///< "coco" | "mtcg-default"
    int iterations = 0; ///< COCO repeat-until iterations (0 default)

    /** One decision per plan placement, in placement-index order. */
    std::vector<PlacementDecision> placements;

    /** Decisions whose final point set was empty (no communication
     *  materialized; the interesting "why is there NO queue" cases). */
    std::vector<PlacementDecision> elided;

    bool operator==(const PlacementProvenance &) const = default;
};

// ---------------------------------------------------------------------------
// Queue-allocation provenance.

/** Why one architected queue exists and what it multiplexes. */
struct QueueDecision
{
    int queue = -1;
    int src_thread = 0;
    int dst_thread = 0;

    /**
     * "identity" (one queue per placement, paper footnote 1) or
     * "pair-share" (round-robin over the thread pair's proportional
     * share of the architected budget).
     */
    std::string rule;

    /** Placements of this (src, dst) pair and queues granted to it. */
    int pair_placements = 0;
    int pair_queues = 0;

    /** Plan placement indices multiplexed onto this queue. */
    std::vector<int> placements;

    bool operator==(const QueueDecision &) const = default;
};

struct QueueProvenance
{
    int max_queues = 0; ///< 0 = unlimited (identity allocation)
    int num_queues = 0;
    std::vector<QueueDecision> queues; ///< in queue-id order

    bool operator==(const QueueProvenance &) const = default;
};

// ---------------------------------------------------------------------------
// The full per-cell record.

/** Decision provenance of one pipeline cell. */
struct Provenance
{
    std::string cell;     ///< "workload/SCHED[+COCO]"
    std::string workload;
    std::string scheduler;
    bool coco = false;
    int num_threads = 0;

    PartitionProvenance partition;
    PlacementProvenance placement;
    QueueProvenance queues;

    bool operator==(const Provenance &) const = default;

    /** Decision that placed instruction @p i (null if out of range). */
    const UnitDecision *unitDecisionFor(InstrId i) const;

    /** Decision behind allocated queue @p q (null if unknown). */
    const QueueDecision *queueDecisionFor(int q) const;

    /** Decision behind plan placement @p index (null if unknown). */
    const PlacementDecision *placementDecisionFor(int index) const;
};

/**
 * Canonical JSON serialization: schema:1 first, fixed key order,
 * arrays in deterministic order, no whitespace variance — the byte
 * representation the determinism tests and `gmt-explain --diff`
 * compare. @p include_exec additionally emits the execution-only
 * fields (exec_warm); leave it off for anything byte-compared.
 */
void writeProvenanceJson(std::ostream &os, const Provenance &p,
                         bool include_exec = false);

/** writeProvenanceJson into a string. */
std::string provenanceJson(const Provenance &p,
                           bool include_exec = false);

} // namespace gmt

#endif // GMT_OBS_PROVENANCE_HPP
