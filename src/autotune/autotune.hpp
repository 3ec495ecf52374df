#ifndef GMT_AUTOTUNE_AUTOTUNE_HPP
#define GMT_AUTOTUNE_AUTOTUNE_HPP

/**
 * @file
 * Feedback-directed re-partitioning: close the profile -> schedule
 * loop. The autotuner takes one cell's schedule plus the simulator's
 * StallReport and iterates partition -> COCO -> simulate -> profile,
 * folding each round's stall attribution back into the next round's
 * scheduling decisions:
 *
 *  - stall-charged blocks bias DSWP's stage fills and GREMIO's
 *    busy/work scoring (PartitionFeedback::block_boost),
 *  - stall-charged queues raise the communication weight of the PDG
 *    arcs they carry (PartitionFeedback::arc_boost) and the cut cost
 *    of the blocks holding their placement points (a stall-boosted
 *    EdgeProfile re-cut through COCO, warm-started from the previous
 *    round's retained residuals via CocoArenaCache),
 *  - boundary instructions (PDG SCCs) on the costliest queues are
 *    candidates to migrate between the pair's threads.
 *
 * Every candidate schedule is statically verified (mtverify, HB
 * included) and timing-simulated; the strictly best improvement at or
 * above the relative epsilon is accepted (simulated cycles are
 * monotone non-increasing by construction), and the loop stops when
 * no candidate qualifies or the iteration cap is hit. Candidate
 * generation and acceptance read only deterministic inputs and break
 * ties in canonical candidate order, so the tuned schedule, the move
 * log, and the trajectory are byte-identical at any job count, cache
 * state, and warm/cold max-flow setting.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/control_dep.hpp"
#include "analysis/edge_profile.hpp"
#include "coco/coco.hpp"
#include "mtcg/comm_plan.hpp"
#include "obs/provenance.hpp"
#include "obs/stall_report.hpp"
#include "obs/timeline.hpp"
#include "partition/partition.hpp"
#include "pdg/pdg.hpp"
#include "runtime/mt_interpreter.hpp"
#include "sim/cmp_simulator.hpp"
#include "sim/decoded_program.hpp"
#include "sim/machine_config.hpp"

namespace gmt
{

/** One complete schedule the loop holds or proposes. */
struct AutotuneSchedule
{
    ThreadPartition partition;
    CommPlan plan;
    int plan_coco_iterations = 0;
    MtProgram prog;
    std::vector<int> queue_of;
    uint64_t cycles = 0;

    /**
     * Decisions behind plan and queue_of, recorded by the run that
     * made them; empty unless AutotuneInputs::record_provenance.
     */
    PlacementProvenance placement_prov;
    QueueProvenance queue_prov;
};

/** Autotuner knobs (result axes; keyed by the driver). */
struct AutotuneOptions
{
    /** Hard cap on feedback iterations. */
    int max_iterations = 8;

    /**
     * Convergence gate: a candidate is accepted only when it improves
     * simulated cycles by at least this relative fraction; otherwise
     * the loop has converged.
     */
    double min_rel_improvement = 1e-4;

    /** Stall-ranked queues considered for boundary migration. */
    int migrate_top_queues = 3;

    /** Cap on migration candidates per iteration. */
    int migrate_max_candidates = 8;

    /**
     * Execution-only test hook (never part of a cache key): called
     * with every accepted intermediate schedule, in acceptance order.
     */
    std::function<void(const AutotuneSchedule &)> on_accept;
};

/** Provenance of one considered move (accepted or rejected). */
struct AutotuneMove
{
    int iteration = 0;      ///< 1-based feedback round
    std::string kind;       ///< "recut" | "reweight" | "migrate"
    std::string detail;     ///< human-readable stall evidence
    int queue = -1;         ///< evidencing queue (migrate; else -1)
    uint64_t stall_cycles = 0; ///< evidence magnitude (cycles)
    int moved_instrs = 0;   ///< instructions whose thread changed
    uint64_t cycles = 0;    ///< simulated cycles (0 = not simulated)
    bool accepted = false;
    std::string rejected_because; ///< empty when accepted

    bool operator==(const AutotuneMove &) const = default;
};

/** Everything the loop produced. */
struct AutotuneResult
{
    AutotuneSchedule final_schedule;

    uint64_t baseline_cycles = 0;
    int iterations = 0; ///< feedback rounds executed
    int moves_accepted = 0;
    int moves_rejected = 0;

    /** Warm-started cut solves across arena-cached re-cut rounds. */
    uint64_t warm_cut_reuses = 0;

    /** Loop stopped because no candidate qualified (not the cap). */
    bool converged = false;

    /** Every considered move, in consideration order. */
    std::vector<AutotuneMove> moves;

    /** Simulated cycles: baseline, then after each accepted move. */
    std::vector<uint64_t> trajectory;

    /** Dynamic instruction counts of the final schedule's MT run
     *  (oracle already passed against the ST reference). */
    MtRunCounts counts;

    /** Execution-only: wall time of each feedback round; round 0 is
     *  cold (baseline profiling + cold cut solves), later rounds
     *  reuse retained residuals and skip duplicate candidates. */
    std::vector<double> iter_wall_ms;
};

/** Environment one autotune run needs (all pointers non-owning). */
struct AutotuneInputs
{
    const Function *f = nullptr;
    const Pdg *pdg = nullptr;
    const ControlDependence *cd = nullptr;
    const EdgeProfile *profile = nullptr;

    /** Partitioner for reweight candidates. */
    Scheduler scheduler = Scheduler::Dswp;
    int num_threads = 2;

    bool use_coco = false;
    CocoOptions coco;

    /** Resolved per-queue capacity (driver default already applied). */
    int queue_capacity = 32;
    int max_queues = 0;

    MachineConfig machine;
    SimEngine engine = SimEngine::Fast;

    /** Reference input + single-threaded truth (equivalence oracle). */
    const std::vector<int64_t> *ref_args = nullptr;
    std::function<MemoryImage()> make_memory;
    const std::vector<int64_t> *st_live_outs = nullptr;
    const MemoryImage *st_final_mem = nullptr;

    /**
     * Record each candidate's placement and queue decisions into its
     * schedule, so the tuned schedule carries its own record
     * (autotuneProvenance). The baseline must carry its record too.
     */
    bool record_provenance = false;
};

/**
 * Run the feedback loop starting from @p baseline (the standard
 * pipeline's schedule and its simulated cycles). Also bumps the
 * autotune.* metrics counters.
 */
AutotuneResult autotuneSchedule(const AutotuneInputs &in,
                                const AutotuneSchedule &baseline,
                                const AutotuneOptions &opts = {});

/**
 * Canonical JSON of the move log + trajectory (schema:1, fixed key
 * order, no execution-only fields) — the byte representation the
 * determinism tests compare and gmt-explain prints.
 */
std::string autotuneMovesJson(const AutotuneResult &r);

/**
 * Build the full decision-provenance record of the tuned schedule
 * from a loop run with AutotuneInputs::record_provenance: partition
 * units synthesized from the tuned assignment's PDG SCCs, placement
 * and queue decisions as the final schedule recorded them when it was
 * planned (nothing is re-run). @p cell names the record
 * ("workload/SCHED[+COCO]+AT").
 */
Provenance autotuneProvenance(const AutotuneInputs &in,
                              const AutotuneResult &r,
                              const std::string &cell,
                              const std::string &workload,
                              const std::string &scheduler);

/** One instrumented re-simulation of a schedule (profileStalls). */
struct StallRun
{
    SimProfile profile;
    StallReport report;
};

/**
 * Re-simulate @p prog on @p args and @p mem with stall attribution
 * attached (and @p timeline, when non-null); the fast engine runs
 * @p decoded when non-null. The run must repeat an uninstrumented one
 * that took @p expect_cycles, and its attribution must sum exactly to
 * the aggregate stall counters (panics naming @p what otherwise).
 * Returns the attribution and its ranked report over @p plan and
 * @p queue_of. Shared by the feedback rounds above and the obs-profile
 * pass.
 */
StallRun profileStalls(const MtProgram &prog, const DecodedProgram *decoded,
                       const CommPlan &plan,
                       const std::vector<int> &queue_of,
                       const std::vector<int64_t> &args, MemoryImage mem,
                       const MachineConfig &machine, SimEngine engine,
                       uint64_t expect_cycles, TimelineBuilder *timeline,
                       const std::string &what);

} // namespace gmt

#endif // GMT_AUTOTUNE_AUTOTUNE_HPP
