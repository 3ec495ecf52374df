/**
 * @file
 * Microbenchmark + correctness gate for the min-cut machinery
 * (Edmonds-Karp, the paper's solver, cold and warm-started). Instead
 * of synthetic networks, this harness:
 *
 *  1. captures the cut problems COCO actually solves over the fig7
 *     cell matrix (every workload x {GREMIO, DSWP}) via the
 *     CocoExec::capture sink — real CFG-shaped networks with real
 *     profile-weight capacities;
 *  2. times cold solves of every captured problem;
 *  3. replays warm-start chains — consecutive captures of the same
 *     (pair, reg) problem whose capacities drifted, plus synthetic
 *     retune sequences stressing MaxFlow::resolve's decrease-repair
 *     path — asserting every warm resolve is byte-identical to a
 *     from-scratch solve of the same capacitated network, and timing
 *     warm against cold;
 *  4. writes the numbers to BENCH_mincut.json; exit status is the
 *     identity gate (CI greps for "identical":true).
 *
 * Usage: micro_mincut [--reps N] [--out FILE]
 *        (defaults: 3 reps, ./BENCH_mincut.json)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "coco/coco.hpp"
#include "driver/pass_manager.hpp"
#include "driver/stats.hpp"
#include "graph/max_flow.hpp"
#include "graph/multi_cut.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "workloads/workload.hpp"

using namespace gmt;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Flow value + cut of one solved problem, the identity payload. */
struct Solution
{
    bool finite = true;
    Capacity value = 0;
    std::vector<int> cut;

    bool
    operator==(const Solution &o) const
    {
        return finite == o.finite && value == o.value && cut == o.cut;
    }
};

/** Solve one captured problem from scratch on @p work (rewound
 *  in-place, so repeated calls are allocation-free). */
void
solveCold(FlowNetwork &work, const CutProblemCapture::Entry &e,
          MaxFlow &mf)
{
    work.clearRemoved();
    work.restoreResiduals();
    if (e.is_mem) {
        multiPairMinCut(work, e.pairs, CutSide::Sink, &mf);
    } else {
        mf.attach(work);
        mf.solve(e.source, e.sink);
    }
}

/** A warm-start chain: a base register network plus a sequence of
 *  capacity-delta steps (natural drift between consecutive captures
 *  of one problem, or synthetic retunes). */
struct Chain
{
    FlowNetwork base{0};
    int source = -1, sink = -1;
    std::vector<std::vector<ArcDelta>> steps;
};

/** Replay one chain warm: cold head solve, then one resolve() per
 *  step. Appends each step's solution (head excluded) to @p out. */
void
replayWarm(const Chain &c, FlowNetwork &state, MaxFlow &mf,
           std::vector<Solution> *out)
{
    state = c.base;
    mf.attach(state);
    mf.solve(c.source, c.sink);
    for (const auto &deltas : c.steps) {
        Capacity value = mf.resolve(deltas);
        if (out) {
            Solution sol;
            sol.value = value;
            sol.finite = mf.finite();
            sol.cut = mf.minCutArcs(CutSide::Source);
            out->push_back(std::move(sol));
        }
    }
}

/** Replay one chain cold: every step's network solved from zero. */
void
replayCold(const Chain &c, FlowNetwork &state, MaxFlow &mf,
           std::vector<Solution> *out)
{
    state = c.base;
    mf.attach(state);
    mf.solve(c.source, c.sink);
    for (const auto &deltas : c.steps) {
        for (const ArcDelta &d : deltas)
            state.setArcCapacity(d.arc, d.remove ? 0 : d.cap);
        state.restoreResiduals();
        Capacity value = mf.solve(c.source, c.sink);
        if (out) {
            Solution sol;
            sol.value = value;
            sol.finite = mf.finite();
            sol.cut = mf.minCutArcs(CutSide::Source);
            out->push_back(std::move(sol));
        }
    }
}

/** Deltas turning @p from's capacities into @p to's (same topology). */
std::vector<ArcDelta>
diffCapacities(const FlowNetwork &from, const FlowNetwork &to)
{
    std::vector<ArcDelta> deltas;
    for (int a = 0; a < from.numArcs(); ++a) {
        if (from.arcCapacity(a) != to.arcCapacity(a))
            deltas.push_back({a, to.arcCapacity(a), false});
    }
    return deltas;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_mincut.json";
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr, "usage: %s [--reps N] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    if (reps < 1)
        reps = 1;

    // ---- 1. Capture the real problem trace (not measured). ----
    MetricsRegistry &m = MetricsRegistry::global();
    uint64_t warm0 = m.counter("coco.warm_starts").value();
    uint64_t cold0 = m.counter("coco.cold_rebuilds").value();
    CutProblemCapture capture;
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.use_coco = true;
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);
            CocoExec exec{&capture};
            cocoOptimize(ctx.pdg->ir->func, ctx.pdg->pdg,
                         ctx.partition->partition, ctx.pdg->cd,
                         ctx.profile->profile, CocoOptions{}, exec);
        }
    }
    uint64_t coco_warm = m.counter("coco.warm_starts").value() - warm0;
    uint64_t coco_cold =
        m.counter("coco.cold_rebuilds").value() - cold0;
    const auto &entries = capture.entries;
    int reg_entries = 0, mem_entries = 0;
    for (const auto &e : entries)
        (e.is_mem ? mem_entries : reg_entries) += 1;
    if (entries.empty()) {
        std::fprintf(stderr, "micro_mincut: captured no problems\n");
        return 2;
    }

    // ---- 2. Cold solves of every problem, best of --reps. ----
    std::vector<FlowNetwork> work;
    for (const auto &e : entries)
        work.push_back(e.net);
    MaxFlow mf;
    double cold_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        for (size_t i = 0; i < entries.size(); ++i)
            solveCold(work[i], entries[i], mf);
        double ms = msSince(t0);
        cold_ms = r == 0 ? ms : std::min(cold_ms, ms);
    }

    // ---- 3. Warm-start chains. ----
    // Natural chains: consecutive captures of the same register
    // problem with identical topology and drifted capacities.
    std::vector<Chain> chains;
    std::map<std::tuple<int, int, Reg>, size_t> last_of;
    for (size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        if (e.is_mem)
            continue;
        auto key = std::make_tuple(e.ts, e.tt, e.r);
        auto it = last_of.find(key);
        if (it != last_of.end()) {
            const auto &prev = entries[it->second];
            if (prev.net.numNodes() == e.net.numNodes() &&
                prev.net.numArcs() == e.net.numArcs()) {
                Chain c;
                c.base = prev.net;
                c.source = e.source;
                c.sink = e.sink;
                c.steps.push_back(diffCapacities(prev.net, e.net));
                chains.push_back(std::move(c));
            }
        }
        last_of[key] = i;
    }
    size_t natural_chains = chains.size();

    // Synthetic chains: retune sequences over captured register
    // networks, stressing resolve()'s decrease-repair path (capacity
    // drops below carried flow force reroute + decomposition).
    {
        int made = 0;
        for (size_t i = 0; i < entries.size() && made < 24; ++i) {
            const auto &e = entries[i];
            if (e.is_mem || e.net.numArcs() < 8)
                continue;
            Rng rng(0x9e3779b9u + static_cast<uint64_t>(i));
            Chain c;
            c.base = e.net;
            c.source = e.source;
            c.sink = e.sink;
            FlowNetwork cur = e.net;
            for (int step = 0; step < 6; ++step) {
                std::vector<ArcDelta> deltas;
                int n_retunes =
                    1 + static_cast<int>(rng.nextBelow(
                            static_cast<uint64_t>(cur.numArcs() / 8 +
                                                  1)));
                for (int k = 0; k < n_retunes; ++k) {
                    int a = static_cast<int>(rng.nextBelow(
                        static_cast<uint64_t>(cur.numArcs())));
                    Capacity old = cur.arcCapacity(a);
                    if (old <= 0 || old >= kInfCapacity)
                        continue; // keep pinned/special arcs pinned
                    Capacity cap =
                        rng.nextBool(0.5)
                            ? static_cast<Capacity>(rng.nextBelow(
                                  static_cast<uint64_t>(old)))
                            : old + 1 +
                                  static_cast<Capacity>(
                                      rng.nextBelow(200));
                    cur.setArcCapacity(a, cap);
                    deltas.push_back({a, cap, false});
                }
                if (!deltas.empty())
                    c.steps.push_back(std::move(deltas));
            }
            if (!c.steps.empty()) {
                chains.push_back(std::move(c));
                ++made;
            }
        }
    }
    size_t chain_steps = 0;
    for (const auto &c : chains)
        chain_steps += c.steps.size();

    // Verification pass (untimed): every warm step byte-equal to a
    // cold solve of the same capacitated network.
    bool identical = true;
    FlowNetwork state(0);
    for (size_t ci = 0; ci < chains.size(); ++ci) {
        std::vector<Solution> warm_sols, cold_sols;
        replayWarm(chains[ci], state, mf, &warm_sols);
        replayCold(chains[ci], state, mf, &cold_sols);
        if (!(warm_sols == cold_sols)) {
            identical = false;
            std::fprintf(stderr,
                         "micro_mincut: warm-chain mismatch at chain "
                         "%zu\n",
                         ci);
        }
    }
    double warm_ms = 0.0, chain_cold_ms = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        for (const Chain &c : chains)
            replayWarm(c, state, mf, nullptr);
        double wm = msSince(t0);
        t0 = Clock::now();
        for (const Chain &c : chains)
            replayCold(c, state, mf, nullptr);
        double cm = msSince(t0);
        warm_ms = r == 0 ? wm : std::min(warm_ms, wm);
        chain_cold_ms = r == 0 ? cm : std::min(chain_cold_ms, cm);
    }
    double warm_speedup = warm_ms > 0.0 ? chain_cold_ms / warm_ms : 0.0;

    JsonObject o;
    o.str("bench", "mincut");
    o.boolean("identical", identical);
    o.num("problems", static_cast<int64_t>(entries.size()));
    o.num("reg_problems", static_cast<int64_t>(reg_entries));
    o.num("mem_problems", static_cast<int64_t>(mem_entries));
    o.num("coco_warm_starts", coco_warm);
    o.num("coco_cold_rebuilds", coco_cold);
    o.num("chains", static_cast<int64_t>(chains.size()));
    o.num("natural_chains", static_cast<int64_t>(natural_chains));
    o.num("chain_steps", static_cast<int64_t>(chain_steps));
    o.num("cold_ms", cold_ms);
    o.num("warm_chain_ms", warm_ms);
    o.num("cold_chain_ms", chain_cold_ms);
    o.num("warm_speedup_vs_cold", warm_speedup);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "micro_mincut: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    out << o.render() << "\n";
    std::cout << o.render() << "\n";
    return identical ? 0 : 1;
}
