#include "coco/coco.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "coco/flow_graph.hpp"
#include "coco/relevant.hpp"
#include "coco/safety.hpp"
#include "coco/thread_liveness.hpp"
#include "graph/multi_cut.hpp"
#include "graph/scc.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

using RegKey = std::tuple<int, int, Reg>;      // (ts, tt, r)
using PairKey = std::pair<int, int>;           // (ts, tt)
using PointList = std::vector<ProgramPoint>;

PointList
normalize(PointList points)
{
    std::sort(points.begin(), points.end());
    points.erase(std::unique(points.begin(), points.end()),
                 points.end());
    return points;
}

/** Threads that need the value consumed by instruction u. */
void
needersOf(const Function &f, const ThreadPartition &partition,
          const std::vector<BitVector> &relevant, InstrId u,
          std::vector<int> &out)
{
    out.clear();
    out.push_back(partition.threadOf(u));
    if (f.instr(u).isBranch()) {
        for (int t = 0; t < partition.num_threads; ++t) {
            if (t != partition.threadOf(u) &&
                relevant[t].test(f.instr(u).block)) {
                out.push_back(t);
            }
        }
    }
}

/**
 * Default (MTCG) placement: right after each contributing def.
 * @p reg_arcs is the per-register index over the PDG's register arcs
 * (built once per cocoOptimize; the old code re-scanned every arc per
 * (ts, tt, reg) triple).
 */
PointList
defaultRegPoints(const Function &f, const Pdg &pdg,
                 const ThreadPartition &partition,
                 const std::vector<BitVector> &relevant,
                 const std::vector<std::vector<int>> &reg_arcs, int ts,
                 int tt, Reg r, std::vector<int> &needers)
{
    PointList points;
    if (r >= 0 && r < static_cast<Reg>(reg_arcs.size())) {
        for (int ai : reg_arcs[r]) {
            const auto &arc = pdg.arcs()[ai];
            if (partition.threadOf(arc.src) != ts)
                continue;
            needersOf(f, partition, relevant, arc.dst, needers);
            if (std::find(needers.begin(), needers.end(), tt) ==
                needers.end())
                continue;
            points.push_back({f.instr(arc.src).block,
                              f.positionOf(arc.src) + 1});
        }
    }
    return normalize(std::move(points));
}

using ProblemKey = std::tuple<int, int, bool, Reg>; // (ts, tt, mem, r)

/**
 * A flow graph retained between solves of the same problem key, the
 * warm-start substrate: as long as the topology is provably the one
 * the serial algorithm would rebuild (register graphs: the liveness
 * snapshot version matches; memory graphs: topology depends only on
 * the function), the next solve refreshes arc costs in place via
 * diffFlowGraphCosts and re-solves incrementally from the retained
 * residual instead of rebuilding from scratch.
 */
struct RetainedGraph
{
    FlowGraph fg;

    /** fg holds a completed build. */
    bool built = false;

    /** Liveness snapshot version the topology was built under
     *  (register graphs only; memory topology never changes). */
    uint64_t vlive = 0;

    /** The residual encodes a completed max flow of value @c flow
     *  (single-terminal-pair problems: register and super-pair). */
    bool solved = false;
    Capacity flow = 0;

    /** Super-pair mode: the appended super terminals. */
    int super_s = -1, super_t = -1;
};

/** Solving arena: retained flow graphs + builder scratch + solver,
 *  all storage reused across problems, iterations and (through
 *  CocoArenaCache) calls. */
struct CutArena
{
    FlowGraphScratch scratch;
    MaxFlow mf;

    /** Last-built graph per problem, for warm starts. */
    std::map<ProblemKey, RetainedGraph> retained;

    /** Scratch for diffFlowGraphCosts / MaxFlow::resolve. */
    std::vector<ArcDelta> deltas;

    /**
     * Cross-call adoption (CocoArenaCache): register graphs retained
     * at a grown liveness version are not comparable across calls
     * (version numbers restart at 0 and the growth history differs),
     * so drop them; version-0 register graphs and memory graphs have
     * topology fixed by (function, partition) and stay.
     */
    void
    dropStaleRetained()
    {
        for (auto it = retained.begin(); it != retained.end();)
            if (!std::get<2>(it->first) && it->second.vlive != 0)
                it = retained.erase(it);
            else
                ++it;
    }
};

/** One enumerated cut problem, in canonical (apply) order. */
struct CutProblem
{
    int pair_idx; ///< index into the iteration's pair order
    int ts, tt;
    bool is_mem;
    Reg r; ///< kNoReg for memory problems

    /** Memory problems: the pair's dependence list (stable). */
    const std::vector<std::pair<InstrId, InstrId>> *deps = nullptr;
};

/** One solved cut, as the apply walk consumes it. */
struct SolvedCut
{
    bool finite = true;
    Capacity cost = 0;
    PointList points; ///< normalized cut points (may be empty)

    /** Provenance payload: per-point cost over the min-cut arcs
     *  (deterministic: the cut arc set is unique), solved graph size,
     *  and whether this solve was warm-started (execution-only). */
    std::vector<CutPointCost> breakdown;
    int graph_nodes = 0;
    int graph_arcs = 0;
    bool warm = false;
};

/** Aggregate per-arc (point, capacity) samples into the sorted
 *  per-point breakdown SolvedCut carries. */
void
normalizeBreakdown(std::vector<CutPointCost> &b)
{
    std::sort(b.begin(), b.end(),
              [](const CutPointCost &x, const CutPointCost &y) {
                  return std::tie(x.block, x.pos) <
                         std::tie(y.block, y.pos);
              });
    size_t out = 0;
    for (size_t i = 0; i < b.size(); ++i) {
        if (out > 0 && b[out - 1].block == b[i].block &&
            b[out - 1].pos == b[i].pos) {
            b[out - 1].cost += b[i].cost;
            b[out - 1].arcs += b[i].arcs;
        } else {
            b[out++] = b[i];
        }
    }
    b.resize(out);
}

/** All per-cocoOptimize solver metrics, resolved once. */
struct CocoCounters
{
    Counter &problems;
    Counter &solves;
    Counter &arcs;
    Counter &augmenting_paths;
    Counter &liveness_memo_hits;
    Counter &warm_starts;
    Counter &cold_rebuilds;

    /** Per-call tallies (the Counter refs are process-global and
     *  aggregate across concurrent cells; CocoResult wants this
     *  call's share). */
    uint64_t warm_local = 0;
    uint64_t cold_local = 0;

    void
    warm()
    {
        warm_starts.add();
        ++warm_local;
    }

    void
    cold()
    {
        cold_rebuilds.add();
        ++cold_local;
    }

    static CocoCounters
    resolve()
    {
        MetricsRegistry &m = MetricsRegistry::global();
        return CocoCounters{m.counter("coco.problems"),
                            m.counter("coco.solves"),
                            m.counter("coco.arcs"),
                            m.counter("coco.augmenting_paths"),
                            m.counter("coco.liveness_memo_hits"),
                            m.counter("coco.warm_starts"),
                            m.counter("coco.cold_rebuilds")};
    }
};

/** Append the just-solved problem to the bench capture sink, with the
 *  network rewound to pristine residuals at its current capacities
 *  (per-pair arc removals from the multi-pair heuristic cleared). */
void
captureProblem(CutProblemCapture *capture, const FlowGraph &fg,
               bool is_mem, int ts, int tt, Reg r)
{
    if (!capture)
        return;
    capture->entries.emplace_back();
    CutProblemCapture::Entry &e = capture->entries.back();
    e.is_mem = is_mem;
    e.ts = ts;
    e.tt = tt;
    e.r = r;
    e.net = fg.net;
    e.net.clearRemoved();
    e.net.restoreResiduals();
    e.source = fg.source;
    e.sink = fg.sink;
    e.pairs = fg.pairs;
}

/** Min-cut for one register problem. @p vlive is the version of the
 *  liveness snapshot @p live (the topology tag of the graph this
 *  solve builds or reuses). */
void
solveRegCut(const FlowGraphInputs &in, const SafetyAnalysis &safety,
            const ThreadLiveness &live, uint64_t vlive, Reg r, int ts,
            int tt, const CocoOptions &opts, CutArena &arena,
            CocoCounters &c, CutProblemCapture *capture, SolvedCut &out)
{
    out.finite = true;
    out.cost = 0;
    out.points.clear();
    out.breakdown.clear();
    out.graph_nodes = 0;
    out.graph_arcs = 0;
    c.solves.add();
    RetainedGraph &rg =
        arena.retained[ProblemKey{ts, tt, /*is_mem=*/false, r}];
    // Warm iff the retained topology is the one the builder would
    // reproduce: node layout and arc structure of a register graph
    // are a pure function of the liveness snapshot (safety and the
    // special S/T arcs depend only on the fixed partition). Costs
    // are refreshed by diff, so they impose no condition.
    const bool warm = opts.warm_start && rg.built &&
                      rg.vlive == vlive &&
                      (rg.solved || rg.fg.trivial);
    out.warm = warm;
    uint64_t paths0 = arena.mf.stats().augmenting_paths;
    Capacity flow = 0;
    if (warm) {
        c.warm();
        if (rg.fg.trivial)
            return;
        diffFlowGraphCosts(in, ts, tt, rg.fg, arena.scratch,
                           arena.deltas);
        arena.mf.attachSolved(rg.fg.net, rg.fg.source, rg.fg.sink,
                              rg.flow);
        rg.solved = false; // not a valid flow while resolve repairs
        flow = arena.mf.resolve(arena.deltas);
        rg.solved = true;
    } else {
        c.cold();
        buildRegisterFlowGraph(in, safety, live, r, ts, tt, rg.fg,
                               arena.scratch);
        rg.built = true;
        rg.vlive = vlive;
        rg.solved = false;
        c.arcs.add(static_cast<uint64_t>(rg.fg.net.numArcs()));
        if (rg.fg.trivial)
            return;
        arena.mf.attach(rg.fg.net);
        flow = arena.mf.solve(rg.fg.source, rg.fg.sink);
        rg.solved = true;
    }
    rg.flow = flow;
    c.augmenting_paths.add(arena.mf.stats().augmenting_paths - paths0);
    out.finite = arena.mf.finite();
    if (!out.finite)
        return;
    out.cost = flow;
    out.graph_nodes = rg.fg.net.numNodes();
    out.graph_arcs = rg.fg.net.numArcs();
    for (int a : arena.mf.minCutArcs()) {
        GMT_ASSERT(rg.fg.arc_points[a].block != kNoBlock);
        out.points.push_back(rg.fg.arc_points[a]);
        out.breakdown.push_back(
            {rg.fg.arc_points[a].block, rg.fg.arc_points[a].pos,
             static_cast<int64_t>(rg.fg.net.arcCapacity(a)), 1});
    }
    out.points = normalize(std::move(out.points));
    normalizeBreakdown(out.breakdown);
    captureProblem(capture, rg.fg, /*is_mem=*/false, ts, tt, r);
}

/** Multi-pair (or super-pair) cut for one pair's memory problem. */
void
solveMemCut(const FlowGraphInputs &in,
            const std::vector<std::pair<InstrId, InstrId>> &deps,
            int ts, int tt, const CocoOptions &opts, CutArena &arena,
            CocoCounters &c, CutProblemCapture *capture, SolvedCut &out)
{
    out.finite = true;
    out.cost = 0;
    out.points.clear();
    out.breakdown.clear();
    out.graph_nodes = 0;
    out.graph_arcs = 0;
    c.solves.add();
    RetainedGraph &rg =
        arena.retained[ProblemKey{ts, tt, /*is_mem=*/true, kNoReg}];
    // Memory graphs span the whole region — topology depends only on
    // the function, never on the relevant sets — so a retained build
    // is reusable whenever it exists (the pair list is a pure
    // function of the fixed PDG; checked anyway, belt and braces).
    const bool warm = opts.warm_start && rg.built &&
                      rg.fg.pairs.size() == deps.size() &&
                      (opts.multi_pair_memory || rg.solved);
    out.warm = warm;
    uint64_t paths0 = arena.mf.stats().augmenting_paths;
    MultiCutResult cut;
    if (warm && opts.multi_pair_memory) {
        // The sequential heuristic re-solves with fresh terminals per
        // pair and consumes the network via removeArc, so the warm
        // win here is build reuse: refresh the costs that moved and
        // rewind the residuals + removals to the pristine state.
        c.warm();
        diffFlowGraphCosts(in, ts, tt, rg.fg, arena.scratch,
                           arena.deltas);
        rg.fg.net.clearRemoved();
        for (const ArcDelta &d : arena.deltas)
            rg.fg.net.setArcCapacity(d.arc, d.cap);
        rg.fg.net.restoreResiduals();
        cut = multiPairMinCut(rg.fg.net, rg.fg.pairs, CutSide::Sink,
                              &arena.mf);
    } else if (warm) {
        // Super-pair mode is one fixed-terminal problem: a true warm
        // start from the retained residual.
        c.warm();
        diffFlowGraphCosts(in, ts, tt, rg.fg, arena.scratch,
                           arena.deltas);
        arena.mf.attachSolved(rg.fg.net, rg.super_s, rg.super_t,
                              rg.flow);
        rg.solved = false;
        rg.flow = arena.mf.resolve(arena.deltas);
        rg.solved = true;
        cut.finite = arena.mf.finite();
        for (int a : arena.mf.minCutArcs()) {
            cut.arcs.push_back(a);
            cut.cost += rg.fg.net.arcCapacity(a);
        }
    } else {
        c.cold();
        buildMemoryFlowGraph(in, deps, ts, tt, rg.fg, arena.scratch);
        rg.built = true;
        rg.solved = false;
        rg.super_s = rg.super_t = -1;
        c.arcs.add(static_cast<uint64_t>(rg.fg.net.numArcs()));
        if (opts.multi_pair_memory) {
            cut = multiPairMinCut(rg.fg.net, rg.fg.pairs, CutSide::Sink,
                                  &arena.mf);
        } else {
            cut = superPairMinCut(rg.fg.net, rg.fg.pairs, &arena.mf,
                                  &rg.super_s, &rg.super_t);
            if (rg.super_s >= 0) {
                rg.flow = arena.mf.lastFlow();
                rg.solved = true;
            }
        }
    }
    c.augmenting_paths.add(arena.mf.stats().augmenting_paths - paths0);
    out.finite = cut.finite;
    if (!out.finite)
        return;
    out.cost = cut.cost;
    out.graph_nodes = rg.fg.net.numNodes();
    out.graph_arcs = rg.fg.net.numArcs();
    for (int a : cut.arcs) {
        out.points.push_back(rg.fg.arc_points[a]);
        out.breakdown.push_back(
            {rg.fg.arc_points[a].block, rg.fg.arc_points[a].pos,
             static_cast<int64_t>(rg.fg.net.arcCapacity(a)), 1});
    }
    out.points = normalize(std::move(out.points));
    normalizeBreakdown(out.breakdown);
    captureProblem(capture, rg.fg, /*is_mem=*/true, ts, tt, kNoReg);
}

} // namespace

struct CocoArenaCache::Impl
{
    CutArena arena;
};

CocoArenaCache::CocoArenaCache() : impl_(std::make_unique<Impl>()) {}

CocoArenaCache::~CocoArenaCache() = default;

void
CocoArenaCache::flush()
{
    impl_->arena = CutArena{};
}

CocoResult
cocoOptimize(const Function &f, const Pdg &pdg,
             const ThreadPartition &partition,
             const ControlDependence &cd, const EdgeProfile &profile,
             const CocoOptions &opts, const CocoExec &exec)
{
    CocoResult result;
    const int nt = partition.num_threads;
    CocoCounters counters = CocoCounters::resolve();

    std::vector<BitVector> relevant =
        initRelevantBranches(f, cd, partition);

    // Safety depends only on the partition: compute once per thread.
    std::vector<std::unique_ptr<SafetyAnalysis>> safety;
    for (int t = 0; t < nt; ++t)
        safety.push_back(
            std::make_unique<SafetyAnalysis>(f, partition, t));

    // Transitive control dependences are immutable per function:
    // hoisted out of the per-problem graph builders (§3.1.2 penalty
    // terms read them for every arc cost).
    std::vector<std::vector<BlockId>> trans_deps(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b)
        trans_deps[b] = cd.transitiveDeps(b);

    // Per-register index over the PDG's register arcs, so the default
    // placement fallback stops re-scanning every arc per problem.
    std::vector<std::vector<int>> reg_arcs(f.numRegs());
    {
        const auto &arcs = pdg.arcs();
        for (int ai = 0; ai < static_cast<int>(arcs.size()); ++ai) {
            const auto &arc = arcs[ai];
            if (arc.kind == DepKind::Register && arc.reg >= 0 &&
                arc.reg < static_cast<Reg>(reg_arcs.size()))
                reg_arcs[arc.reg].push_back(ai);
        }
    }

    // Relevant-set version counters: bumped whenever rule-2 growth
    // actually adds a branch. They key the liveness memo below and tag
    // each retained register graph with the snapshot it was built
    // under (the warm-start topology check).
    std::vector<uint64_t> rel_version(nt, 0);
    auto grow = [&](int tt, const ProgramPoint &p) {
        if (growRelevantForPoint(f, cd, relevant[tt], p))
            ++rel_version[tt];
    };

    // ThreadLiveness is a pure function of (thread, relevant[thread])
    // — memoized on (thread, version) and shared by every register
    // problem of a pair (the old code rebuilt it per pair per
    // iteration even when nothing changed).
    std::map<std::pair<int, uint64_t>,
             std::shared_ptr<const ThreadLiveness>>
        liveness_memo;
    auto livenessFor = [&](int tt) -> const ThreadLiveness & {
        auto key = std::make_pair(tt, rel_version[tt]);
        auto it = liveness_memo.find(key);
        if (it != liveness_memo.end()) {
            counters.liveness_memo_hits.add();
            return *it->second;
        }
        auto live = std::make_shared<const ThreadLiveness>(
            f, partition, tt, relevant[tt]);
        return *liveness_memo.emplace(key, std::move(live))
                    .first->second;
    };

    // The arena either lives for this call only or is adopted from
    // the caller's cross-call cache (autotuner re-cuts warm-start from
    // the previous call's retained residuals).
    CutArena local_arena;
    CutArena &arena = exec.arena_cache != nullptr
                          ? exec.arena_cache->impl()->arena
                          : local_arena;
    if (exec.arena_cache != nullptr)
        arena.dropStaleRetained();

    // Flat sorted accumulators (same iteration order as the old
    // std::map-keyed ones: ascending unique keys).
    std::vector<std::pair<RegKey, PointList>> reg_placements;
    std::vector<std::pair<PairKey, PointList>> mem_placements;

    // Decision records shadowing the accumulators (same keys, same
    // order), kept across iterations so a decision can tell which
    // iteration its final point set first appeared in.
    const bool record = exec.provenance != nullptr;
    std::vector<std::pair<RegKey, PlacementDecision>> reg_decs;
    std::vector<std::pair<PairKey, PlacementDecision>> mem_decs;
    auto prevRegDec = [&](const RegKey &k) -> const PlacementDecision * {
        auto it = std::lower_bound(
            reg_decs.begin(), reg_decs.end(), k,
            [](const auto &e, const RegKey &key) {
                return e.first < key;
            });
        return it != reg_decs.end() && it->first == k ? &it->second
                                                      : nullptr;
    };
    auto prevMemDec = [&](const PairKey &k) -> const PlacementDecision * {
        auto it = std::lower_bound(
            mem_decs.begin(), mem_decs.end(), k,
            [](const auto &e, const PairKey &key) {
                return e.first < key;
            });
        return it != mem_decs.end() && it->first == k ? &it->second
                                                      : nullptr;
    };

    std::vector<int> needers;

    for (int iter = 0; iter < opts.max_iterations; ++iter) {
        ++result.iterations;
        result.register_cut_cost = 0;
        result.memory_cut_cost = 0;

        // ---- Phase 1: enumerate this iteration's cut problems. ----

        // Register work: (pair, reg) entries, sorted + deduplicated
        // (== the old map<PairKey, set<Reg>> in iteration order).
        std::vector<std::pair<PairKey, Reg>> reg_entries;
        // Memory work: per-pair dependence lists in PDG-arc order
        // (stable sort groups by pair, preserving the arc order the
        // multi-pair heuristic sees).
        std::vector<std::pair<PairKey, std::pair<InstrId, InstrId>>>
            mem_entries;
        for (const auto &arc : pdg.arcs()) {
            int ts = partition.threadOf(arc.src);
            if (arc.kind == DepKind::Register) {
                needersOf(f, partition, relevant, arc.dst, needers);
                for (int tt : needers) {
                    if (tt != ts)
                        reg_entries.push_back({{ts, tt}, arc.reg});
                }
            } else if (arc.kind == DepKind::Memory) {
                int tt = partition.threadOf(arc.dst);
                if (tt != ts)
                    mem_entries.push_back(
                        {{ts, tt}, {arc.src, arc.dst}});
            }
        }
        std::sort(reg_entries.begin(), reg_entries.end());
        reg_entries.erase(
            std::unique(reg_entries.begin(), reg_entries.end()),
            reg_entries.end());
        std::stable_sort(mem_entries.begin(), mem_entries.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<std::pair<PairKey,
                              std::vector<std::pair<InstrId, InstrId>>>>
            mem_work;
        for (const auto &[key, dep] : mem_entries) {
            if (mem_work.empty() || mem_work.back().first != key)
                mem_work.push_back({key, {}});
            mem_work.back().second.push_back(dep);
        }

        // Quasi-topological order over the thread graph reduces the
        // number of repeat-until iterations (paper §3.2).
        Digraph tg(nt);
        std::vector<PairKey> pair_order;
        for (const auto &[key, _] : reg_entries) {
            tg.addEdge(key.first, key.second);
            if (pair_order.empty() || pair_order.back() != key)
                pair_order.push_back(key);
        }
        const size_t reg_pairs = pair_order.size(); // sorted prefix
        for (const auto &[key, _] : mem_work) {
            tg.addEdge(key.first, key.second);
            if (!std::binary_search(pair_order.begin(),
                                    pair_order.begin() + reg_pairs,
                                    key))
                pair_order.push_back(key);
        }
        SccResult tg_sccs = computeSccs(tg);
        std::sort(pair_order.begin(), pair_order.end(),
                  [&](const PairKey &a, const PairKey &b) {
                      auto ka = std::make_tuple(
                          tg_sccs.component[a.first],
                          tg_sccs.component[a.second], a);
                      auto kb = std::make_tuple(
                          tg_sccs.component[b.first],
                          tg_sccs.component[b.second], b);
                      return ka < kb;
                  });

        // Flatten into the canonical problem sequence: for each pair
        // in order, its registers ascending, then its memory problem.
        std::vector<CutProblem> problems;
        {
            std::map<PairKey, int> pair_idx_of;
            for (int pi = 0;
                 pi < static_cast<int>(pair_order.size()); ++pi)
                pair_idx_of[pair_order[pi]] = pi;
            std::vector<std::vector<Reg>> regs_of(pair_order.size());
            for (const auto &[key, r] : reg_entries)
                regs_of[pair_idx_of[key]].push_back(r);
            std::map<PairKey, int> mem_idx_of;
            for (int mi = 0;
                 mi < static_cast<int>(mem_work.size()); ++mi)
                mem_idx_of[mem_work[mi].first] = mi;
            for (int pi = 0;
                 pi < static_cast<int>(pair_order.size()); ++pi) {
                auto [ts, tt] = pair_order[pi];
                for (Reg r : regs_of[pi])
                    problems.push_back(
                        {pi, ts, tt, false, r, nullptr});
                if (auto it = mem_idx_of.find(pair_order[pi]);
                    it != mem_idx_of.end())
                    problems.push_back(
                        {pi, ts, tt, true, kNoReg,
                         &mem_work[it->second].second});
            }
        }
        counters.problems.add(problems.size());

        FlowGraphInputs inputs{&f,        &cd,
                               &profile,  &partition,
                               &relevant, &trans_deps,
                               opts.control_flow_penalties};

        // ---- Phase 2: solve and apply in canonical order. ----
        std::vector<std::pair<RegKey, PointList>> new_reg;
        std::vector<std::pair<PairKey, PointList>> new_mem;
        std::vector<std::pair<RegKey, PlacementDecision>> new_reg_dec;
        std::vector<std::pair<PairKey, PlacementDecision>> new_mem_dec;

        SolvedCut cut;
        int cur_pair = -1;
        uint64_t pair_entry_vtt = 0;
        const ThreadLiveness *live = nullptr;

        for (size_t i = 0; i < problems.size(); ++i) {
            const CutProblem &p = problems[i];
            if (p.pair_idx != cur_pair) {
                cur_pair = p.pair_idx;
                pair_entry_vtt = rel_version[p.tt];
                // Snapshot of tt's relevant branches for liveness.
                live = &livenessFor(p.tt);
            }

            if (!p.is_mem) {
                PointList points;
                const SolvedCut *used_cut = nullptr;
                if (opts.optimize_registers) {
                    solveRegCut(inputs, *safety[p.ts], *live,
                                pair_entry_vtt, p.r, p.ts, p.tt, opts,
                                arena, counters, exec.capture, cut);
                    GMT_ASSERT(cut.finite, "no finite register cut");
                    result.register_cut_cost += cut.cost;
                    points = cut.points;
                    used_cut = &cut;
                }
                const bool from_cut = !points.empty();
                if (points.empty()) {
                    points = defaultRegPoints(f, pdg, partition,
                                              relevant, reg_arcs,
                                              p.ts, p.tt, p.r,
                                              needers);
                }
                const RegKey key{p.ts, p.tt, p.r};
                if (record) {
                    PlacementDecision d;
                    d.is_mem = false;
                    d.reg = p.r;
                    d.src_thread = p.ts;
                    d.dst_thread = p.tt;
                    d.problem = static_cast<int>(i);
                    d.rule = from_cut ? "coco-cut" : "coco-default";
                    if (used_cut) {
                        d.cut_cost = used_cut->cost;
                        d.graph_nodes = used_cut->graph_nodes;
                        d.graph_arcs = used_cut->graph_arcs;
                        d.exec_warm = used_cut->warm;
                    }
                    if (from_cut) {
                        d.points = used_cut->breakdown;
                    } else {
                        for (const auto &pt : points)
                            d.points.push_back(
                                {pt.block, pt.pos,
                                 static_cast<int64_t>(
                                     profile.pointWeight(pt)),
                                 0});
                    }
                    const PlacementDecision *prev = prevRegDec(key);
                    d.iteration = prev && prev->rule == d.rule &&
                                          prev->points == d.points
                                      ? prev->iteration
                                      : result.iterations;
                    new_reg_dec.push_back({key, std::move(d)});
                }
                new_reg.push_back({key, points});
                for (const auto &pt : points)
                    grow(p.tt, pt);
            } else {
                PointList points;
                const SolvedCut *used_cut = nullptr;
                if (opts.optimize_memory) {
                    solveMemCut(inputs, *p.deps, p.ts, p.tt, opts, arena,
                                counters, exec.capture, cut);
                    GMT_ASSERT(cut.finite, "no finite memory cut");
                    result.memory_cut_cost += cut.cost;
                    points = cut.points;
                    used_cut = &cut;
                } else {
                    for (auto [src, _] : *p.deps) {
                        points.push_back({f.instr(src).block,
                                          f.positionOf(src) + 1});
                    }
                    points = normalize(std::move(points));
                }
                const PairKey key{p.ts, p.tt};
                if (record) {
                    PlacementDecision d;
                    d.is_mem = true;
                    d.src_thread = p.ts;
                    d.dst_thread = p.tt;
                    d.problem = static_cast<int>(i);
                    d.num_deps = static_cast<int>(p.deps->size());
                    d.rule = used_cut ? "coco-cut" : "coco-default";
                    if (used_cut) {
                        d.cut_cost = used_cut->cost;
                        d.graph_nodes = used_cut->graph_nodes;
                        d.graph_arcs = used_cut->graph_arcs;
                        d.exec_warm = used_cut->warm;
                        d.points = used_cut->breakdown;
                    } else {
                        for (const auto &pt : points)
                            d.points.push_back(
                                {pt.block, pt.pos,
                                 static_cast<int64_t>(
                                     profile.pointWeight(pt)),
                                 0});
                    }
                    const PlacementDecision *prev = prevMemDec(key);
                    d.iteration = prev && prev->rule == d.rule &&
                                          prev->points == d.points
                                      ? prev->iteration
                                      : result.iterations;
                    new_mem_dec.push_back({key, std::move(d)});
                }
                new_mem.push_back({key, points});
                for (const auto &pt : points)
                    grow(p.tt, pt);
            }
        }

        // Pair order is quasi-topological, not key-sorted; restore
        // the canonical ascending-key order the old map accumulators
        // iterated in (keys are unique, so plain sort by key).
        std::sort(new_reg.begin(), new_reg.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        std::sort(new_mem.begin(), new_mem.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        if (record) {
            std::sort(new_reg_dec.begin(), new_reg_dec.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            std::sort(new_mem_dec.begin(), new_mem_dec.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            reg_decs = std::move(new_reg_dec);
            mem_decs = std::move(new_mem_dec);
        }

        bool converged =
            (new_reg == reg_placements) && (new_mem == mem_placements);
        reg_placements = std::move(new_reg);
        mem_placements = std::move(new_mem);
        if (converged)
            break;
    }

    // Materialize the plan in deterministic order. Decision records
    // pick up their final plan index here (or land in elided when no
    // points survived); reg_decs/mem_decs share the accumulators' key
    // sequence, so positions line up one to one.
    if (record) {
        GMT_ASSERT(reg_decs.size() == reg_placements.size() &&
                   mem_decs.size() == mem_placements.size());
        exec.provenance->source = "coco";
        exec.provenance->iterations = result.iterations;
    }
    for (size_t k = 0; k < reg_placements.size(); ++k) {
        const auto &[key, points] = reg_placements[k];
        auto [ts, tt, r] = key;
        if (record) {
            PlacementDecision d = std::move(reg_decs[k].second);
            if (points.empty()) {
                exec.provenance->elided.push_back(std::move(d));
            } else {
                d.index =
                    static_cast<int>(result.plan.placements.size());
                exec.provenance->placements.push_back(std::move(d));
            }
        }
        if (points.empty())
            continue;
        result.plan.placements.push_back(
            {CommKind::RegisterData, r, ts, tt, points});
    }
    for (size_t k = 0; k < mem_placements.size(); ++k) {
        const auto &[key, points] = mem_placements[k];
        auto [ts, tt] = key;
        if (record) {
            PlacementDecision d = std::move(mem_decs[k].second);
            if (points.empty()) {
                exec.provenance->elided.push_back(std::move(d));
            } else {
                d.index =
                    static_cast<int>(result.plan.placements.size());
                exec.provenance->placements.push_back(std::move(d));
            }
        }
        if (points.empty())
            continue;
        result.plan.placements.push_back(
            {CommKind::MemorySync, kNoReg, ts, tt, points});
    }
    result.warm_starts = counters.warm_local;
    result.cold_rebuilds = counters.cold_local;
    return result;
}

uint64_t
planDynamicCost(const Function &f, const CommPlan &plan,
                const EdgeProfile &profile)
{
    (void)f;
    uint64_t cost = 0;
    for (const auto &pl : plan.placements) {
        for (const auto &p : pl.points)
            cost += 2 * profile.pointWeight(p); // produce + consume
    }
    return cost;
}

} // namespace gmt
