#ifndef GMT_COCO_COCO_HPP
#define GMT_COCO_COCO_HPP

/**
 * @file
 * The COCO optimizer (paper Algorithm 2): for every dependent thread
 * pair, place each register's communication by a min-cut of its flow
 * graph and all memory synchronization by a multi-pair min-cut,
 * growing the target thread's relevant-branch set as placements land
 * on new conditional points, iterating until the placement set
 * converges (guaranteed: relevant sets only grow).
 */

#include <memory>
#include <utility>
#include <vector>

#include "analysis/edge_profile.hpp"
#include "graph/max_flow.hpp"
#include "mtcg/comm_plan.hpp"
#include "obs/provenance.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"

namespace gmt
{

/** COCO configuration (ablation switches included). */
struct CocoOptions
{
    /** §3.1.2 control-flow penalties on arc costs. */
    bool control_flow_penalties = true;

    /** Optimize register communications (§3.1.1). */
    bool optimize_registers = true;

    /** Optimize memory synchronizations (§3.1.3). */
    bool optimize_memory = true;

    /**
     * Use the paper's sequential per-pair heuristic for the (NP-hard)
     * multi-pair memory cut; false = single super-pair cut baseline.
     */
    bool multi_pair_memory = true;

    /**
     * Warm-start repeated cut problems: the cut arena retains the
     * last-built flow graph per (pair class, thread pair) and, when
     * the topology is provably unchanged (same liveness snapshot
     * version for register graphs; memory graph topology is fixed by
     * the function), refreshes only the arc costs that moved and
     * re-solves incrementally from the retained residual
     * (MaxFlow::resolve) instead of rebuilding and solving from zero.
     * Plans are byte-identical either way — source/sink-side min cuts
     * are unique across max flows, and debug builds cross-check every
     * warm solve against a cold Edmonds-Karp run. Ablation switch
     * only.
     */
    bool warm_start = true;

    /** Safety valve for the repeat-until loop. */
    int max_iterations = 16;
};

/**
 * Optional capture sink for the cut problems COCO actually solves:
 * each solved problem's network (pristine residuals, post-refresh
 * capacities), terminals, and identity are appended, in solve order.
 * Consumed by bench/micro_mincut to time cold solves and replay
 * warm-start chains over real problem traces rather than synthetic
 * networks.
 */
struct CutProblemCapture
{
    struct Entry
    {
        bool is_mem = false;
        int ts = 0, tt = 0;
        Reg r = kNoReg;

        /** The network as solved, rewound to pristine residuals. */
        FlowNetwork net{0};

        /** Register problems: terminals. */
        int source = -1, sink = -1;

        /** Memory problems: per-dependence terminal pairs. */
        std::vector<std::pair<int, int>> pairs;
    };

    std::vector<Entry> entries;
};

/**
 * Opaque handle to COCO's cut arena (retained flow graphs + max-flow
 * residuals) that survives across cocoOptimize calls, so a
 * re-cut of the *same partition* with shifted arc costs (the
 * autotuner's stall-boosted profiles) warm-starts from the previous
 * call's residuals via MaxFlow::resolve instead of solving from zero.
 *
 * Soundness contract: retained graph topology depends on the function
 * and the partition (memory graphs: the cross-thread dependence pair
 * list; register graphs: the version-0 relevant-branch sets). The
 * cache is therefore only valid across calls that share both — the
 * owner must flush() whenever the partition changes. Register graphs
 * retained at a grown liveness version are dropped automatically on
 * the next adoption (version numbers are not comparable across
 * calls). Plans stay byte-identical warm or cold (min cuts are
 * unique; debug builds cross-check).
 */
class CocoArenaCache
{
  public:
    CocoArenaCache();
    ~CocoArenaCache();
    CocoArenaCache(const CocoArenaCache &) = delete;
    CocoArenaCache &operator=(const CocoArenaCache &) = delete;

    /** Drop every retained graph (call on partition change). */
    void flush();

    struct Impl;
    Impl *impl() const { return impl_.get(); }

  private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Optional sinks and caches for one optimizer call. Cut problems are
 * solved one at a time in canonical order; defaults mean "none".
 */
struct CocoExec
{
    /** Optional cut-problem capture sink (bench/micro_mincut). */
    CutProblemCapture *capture = nullptr;

    /**
     * Optional decision-provenance sink: per-placement rule,
     * Algorithm-2 iteration, cut problem id, and arc-cost breakdown —
     * identical warm or cold (the min cut is unique).
     */
    PlacementProvenance *provenance = nullptr;

    /**
     * Optional cross-call arena cache (see CocoArenaCache). Null =
     * the arena is local to the call (no cross-call warm starts).
     */
    CocoArenaCache *arena_cache = nullptr;
};

/** Result of the optimizer. */
struct CocoResult
{
    CommPlan plan;

    /** repeat-until iterations executed. */
    int iterations = 0;

    /** Total min-cut cost over all register cuts (profile units). */
    Capacity register_cut_cost = 0;

    /** Total multi-cut cost over all memory cuts. */
    Capacity memory_cut_cost = 0;

    /** Warm-started solves in *this call* (global coco.* counters
     *  aggregate across concurrent cells; these do not). */
    uint64_t warm_starts = 0;

    /** Cold builds/rebuilds in this call. */
    uint64_t cold_rebuilds = 0;
};

/**
 * Run COCO. Dependences whose kind is disabled by @p opts fall back
 * to the default MTCG placement (after the source instruction).
 */
CocoResult cocoOptimize(const Function &f, const Pdg &pdg,
                        const ThreadPartition &partition,
                        const ControlDependence &cd,
                        const EdgeProfile &profile,
                        const CocoOptions &opts = {},
                        const CocoExec &exec = {});

/**
 * Estimated dynamic communication instructions a plan executes
 * (produce + consume at every point, weighted by the profile).
 */
uint64_t planDynamicCost(const Function &f, const CommPlan &plan,
                         const EdgeProfile &profile);

} // namespace gmt

#endif // GMT_COCO_COCO_HPP
