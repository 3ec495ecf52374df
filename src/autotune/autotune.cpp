#include "autotune/autotune.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "coco/validate.hpp"
#include "graph/scc.hpp"
#include "mtcg/mtcg.hpp"
#include "mtcg/queue_alloc.hpp"
#include "mtverify/mtverify.hpp"
#include "obs/metrics.hpp"
#include "obs/stall_profile.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace gmt
{

namespace
{

/** Internal working state: the public schedule plus its decoded form
 *  (kept so the accepted schedule is decoded once, then reused by the
 *  next round's instrumented profile run). */
struct Working
{
    AutotuneSchedule s;
    DecodedProgram decoded;
    bool has_decoded = false;
};

/** Stall evidence of one feedback round, all additive cycle charges. */
struct Feedback
{
    /** Block stall charges (BlockAttribution), for the partitioners. */
    std::vector<uint64_t> block_boost;

    /** Queue stalls mapped to the PDG arcs each queue carries. */
    std::vector<uint64_t> arc_boost;

    /** block_boost plus queue stalls charged to the blocks holding
     *  the stalled queue's current placement points — the cut costs
     *  a re-cut solves under (pushes min cuts away from both
     *  stall-charged blocks and stalled points). */
    std::vector<uint64_t> cut_boost;
};

/** A proposed schedule change, before code generation. */
struct Candidate
{
    std::string kind; ///< "recut" | "reweight" | "migrate"
    std::string detail;
    int queue = -1;
    uint64_t stall = 0;
    ThreadPartition partition;
    CommPlan plan;
    int plan_iters = 0;
    PlacementProvenance placement_prov;
};

/** PDG arcs matching one queue placement descriptor under @p part. */
bool
arcMatchesPlacement(const PdgArc &arc, const PlacementDesc &pd,
                    const ThreadPartition &part)
{
    if (part.threadOf(arc.src) != pd.src_thread ||
        part.threadOf(arc.dst) != pd.dst_thread)
        return false;
    if (pd.kind == CommKind::RegisterData)
        return arc.kind == DepKind::Register && arc.reg == pd.reg;
    return arc.kind == DepKind::Memory;
}

Feedback
deriveFeedback(const AutotuneInputs &in, const AutotuneSchedule &cur,
               const StallReport &report)
{
    const Function &f = *in.f;
    Feedback fb;
    fb.block_boost.assign(static_cast<size_t>(f.numBlocks()), 0);
    fb.arc_boost.assign(
        static_cast<size_t>(in.pdg->numArcs()), 0);

    for (const BlockAttribution &b : report.blocks)
        if (b.block >= 0 && b.block < f.numBlocks())
            fb.block_boost[static_cast<size_t>(b.block)] +=
                b.prof.total();

    fb.cut_boost = fb.block_boost;
    const auto &arcs = in.pdg->arcs();
    for (const QueueAttribution &q : report.queues) {
        uint64_t stall = q.prof.stallCycles();
        if (stall == 0)
            continue;
        for (const PlacementDesc &pd : q.placements) {
            for (size_t a = 0; a < arcs.size(); ++a)
                if (arcMatchesPlacement(arcs[a], pd, cur.partition))
                    fb.arc_boost[a] += stall;
            // Charge the stalled queue's current placement points:
            // the re-cut then prefers moving them elsewhere.
            if (pd.placement >= 0 &&
                pd.placement <
                    static_cast<int>(cur.plan.placements.size())) {
                const CommPlacement &pl =
                    cur.plan.placements[static_cast<size_t>(
                        pd.placement)];
                // Each distinct block once per (queue, placement).
                std::vector<BlockId> seen;
                for (const ProgramPoint &pt : pl.points) {
                    if (std::find(seen.begin(), seen.end(),
                                  pt.block) != seen.end())
                        continue;
                    seen.push_back(pt.block);
                    fb.cut_boost[static_cast<size_t>(pt.block)] +=
                        stall;
                }
            }
        }
    }
    return fb;
}

/** Profile-weighted dynamic cycles of the stalled queues, rendered
 *  deterministically for move details. */
std::string
u64(uint64_t v)
{
    return std::to_string(v);
}

/** COCO (or default MTCG) plan for c.partition, with its placement
 *  decisions recorded into c.placement_prov when the cell records
 *  provenance. */
bool
planFor(const AutotuneInputs &in, const EdgeProfile &profile,
        CocoArenaCache *cache, uint64_t *warm_reuses, Candidate &c,
        std::string &reject)
{
    if (!in.use_coco) {
        c.plan = defaultMtcgPlan(*in.f, *in.pdg, c.partition, *in.cd);
        c.plan_iters = 0;
        if (in.record_provenance)
            c.placement_prov = defaultPlacementProvenance(c.plan, profile);
    } else {
        CocoExec exec;
        exec.arena_cache = cache;
        if (in.record_provenance)
            exec.provenance = &c.placement_prov;
        CocoResult res = cocoOptimize(*in.f, *in.pdg, c.partition, *in.cd,
                                      profile, in.coco, exec);
        if (cache != nullptr && warm_reuses != nullptr)
            *warm_reuses += res.warm_starts;
        c.plan = std::move(res.plan);
        c.plan_iters = res.iterations;
    }
    auto problems =
        validatePlan(*in.f, *in.pdg, c.partition, *in.cd, c.plan);
    if (!problems.empty()) {
        reject = "invalid-plan";
        return false;
    }
    return true;
}

/** Generate this round's candidates, canonical order: recut, then
 *  reweight, then migrations by stall rank. */
std::vector<Candidate>
generateCandidates(const AutotuneInputs &in, const Working &cur,
                   const StallReport &report, const Feedback &fb,
                   const SccResult &sccs,
                   CocoArenaCache &arena_cache, uint64_t &warm_reuses,
                   std::vector<std::vector<int>> &tried_partitions,
                   const AutotuneOptions &opts,
                   std::vector<AutotuneMove> &invalid_moves,
                   int iteration)
{
    std::vector<Candidate> out;
    uint64_t total_stall = report.totalStallCycles();

    auto boosted = [&](const std::vector<uint64_t> &boost) {
        return in.profile->withBlockBoost(boost);
    };

    // Reweight/migrate candidates always plan under the base profile,
    // so a partition we already planned once would reproduce the same
    // plan — skip it before paying for the cut solve and the
    // simulation. (Re-cuts plan under this round's stall boost and
    // are never skipped this way.) This is the bulk of the warm-round
    // saving: steady-state rounds regenerate mostly-seen partitions.
    auto seen_partition = [&](const std::vector<int> &assign) {
        return std::find(tried_partitions.begin(),
                         tried_partitions.end(),
                         assign) != tried_partitions.end();
    };

    // 1. Re-cut: same partition, stall-boosted cut costs, re-solved
    //    through the retained arenas (MaxFlow::resolve warm starts
    //    keyed on the stall-weight deltas).
    if (in.use_coco) {
        Candidate c;
        c.kind = "recut";
        c.detail = "stall-boosted re-cut (total stall " +
                   u64(total_stall) + ")";
        c.stall = total_stall;
        c.partition = cur.s.partition;
        EdgeProfile prof = boosted(fb.cut_boost);
        std::string reject;
        if (planFor(in, prof, &arena_cache, &warm_reuses, c, reject)) {
            out.push_back(std::move(c));
        } else {
            AutotuneMove m;
            m.iteration = iteration;
            m.kind = c.kind;
            m.detail = c.detail;
            m.stall_cycles = c.stall;
            m.rejected_because = reject;
            invalid_moves.push_back(std::move(m));
        }
    }

    // 2. Re-weight: feed the boosts to the partitioner, then re-place
    //    from scratch (the partition changed, so no retained arenas).
    {
        PartitionFeedback pf{fb.block_boost, fb.arc_boost};
        Candidate c;
        c.kind = "reweight";
        c.detail = "feedback re-partition (total stall " +
                   u64(total_stall) + ")";
        c.stall = total_stall;
        c.partition = partitionPdg(in.scheduler, *in.pdg, *in.profile,
                                   in.num_threads, &pf);
        auto problems = validatePartition(
            *in.pdg, c.partition,
            /*require_pipeline=*/in.scheduler == Scheduler::Dswp);
        std::string reject;
        if (!problems.empty()) {
            reject = "invalid-partition";
        } else if (c.partition.assign == cur.s.partition.assign) {
            reject = "no-change";
        } else if (seen_partition(c.partition.assign)) {
            reject = "duplicate";
        } else {
            tried_partitions.push_back(c.partition.assign);
            if (planFor(in, *in.profile, nullptr, nullptr, c, reject))
                out.push_back(std::move(c));
        }
        if (!reject.empty()) {
            AutotuneMove m;
            m.iteration = iteration;
            m.kind = "reweight";
            m.detail = c.detail;
            m.stall_cycles = c.stall;
            m.rejected_because = reject;
            invalid_moves.push_back(std::move(m));
        }
    }

    // 3. Migrations: boundary units (PDG SCCs) on the costliest
    //    queues move between the pair's threads. report.queues is
    //    already sorted by stall descending with deterministic ties.
    // Only queues whose stall evidence is worth acting on seed
    // migrations. Every round requires the queue's charged stall to
    // clear the epsilon acceptance threshold (weaker evidence cannot
    // justify a move that would be accepted anyway). Rounds after the
    // first additionally require a material share of the round's
    // total stall: once an accepted move drains the dominant queues,
    // the residue flattens across many small queues, and simulating a
    // migration for each of them is what would make steady-state
    // rounds as expensive as the cold first round. The first round
    // keeps the widest net — it sees the baseline's concentrated
    // stalls and is where most accepts happen.
    const uint64_t min_gain = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(
               static_cast<double>(cur.s.cycles) *
               opts.min_rel_improvement)));
    const uint64_t min_queue_stall =
        iteration == 1 ? min_gain
                       : std::max(min_gain, (total_stall + 9) / 10);
    int queues_used = 0;
    std::vector<std::pair<int, int>> tried_moves; // (unit, to)
    int migrations = 0;
    for (const QueueAttribution &q : report.queues) {
        if (queues_used >= opts.migrate_top_queues ||
            migrations >= opts.migrate_max_candidates)
            break;
        uint64_t stall = q.prof.stallCycles();
        if (stall < min_queue_stall)
            break;
        ++queues_used;
        const auto &arcs = in.pdg->arcs();
        for (const PlacementDesc &pd : q.placements) {
            for (size_t a = 0; a < arcs.size(); ++a) {
                if (!arcMatchesPlacement(arcs[a], pd, cur.s.partition))
                    continue;
                const std::pair<int, int> ends[2] = {
                    {sccs.component[arcs[a].src], pd.dst_thread},
                    {sccs.component[arcs[a].dst], pd.src_thread}};
                for (const auto &[unit, to] : ends) {
                    if (migrations >= opts.migrate_max_candidates)
                        break;
                    if (std::find(tried_moves.begin(),
                                  tried_moves.end(),
                                  std::make_pair(unit, to)) !=
                        tried_moves.end())
                        continue;
                    tried_moves.emplace_back(unit, to);

                    ThreadPartition p = cur.s.partition;
                    for (NodeId i :
                         sccs.members[static_cast<size_t>(unit)])
                        p.assign[i] = to;
                    if (p.assign == cur.s.partition.assign)
                        continue;

                    Candidate c;
                    c.kind = "migrate";
                    c.detail = "unit " + std::to_string(unit) +
                               " -> thread " + std::to_string(to) +
                               " (queue " + std::to_string(q.queue) +
                               " stall " + u64(stall) + ")";
                    c.queue = q.queue;
                    c.stall = stall;
                    c.partition = std::move(p);
                    ++migrations;

                    std::string reject;
                    if (seen_partition(c.partition.assign))
                        reject = "duplicate";
                    auto problems =
                        reject.empty()
                            ? validatePartition(
                                  *in.pdg, c.partition,
                                  /*require_pipeline=*/in.scheduler ==
                                      Scheduler::Dswp)
                            : std::vector<std::string>{};
                    if (!problems.empty()) {
                        reject = "invalid-partition";
                    } else if (reject.empty()) {
                        // An emptied thread produces a degenerate
                        // program; never propose one.
                        std::vector<int> count(
                            static_cast<size_t>(
                                c.partition.num_threads),
                            0);
                        for (int t : c.partition.assign)
                            ++count[static_cast<size_t>(t)];
                        for (int n : count)
                            if (n == 0)
                                reject = "empties-thread";
                    }
                    if (reject.empty()) {
                        tried_partitions.push_back(c.partition.assign);
                        if (planFor(in, *in.profile, nullptr, nullptr,
                                    c, reject))
                            out.push_back(std::move(c));
                    }
                    if (!reject.empty()) {
                        AutotuneMove m;
                        m.iteration = iteration;
                        m.kind = "migrate";
                        m.detail = c.detail;
                        m.queue = c.queue;
                        m.stall_cycles = c.stall;
                        m.rejected_because = reject;
                        invalid_moves.push_back(std::move(m));
                    }
                }
            }
        }
    }
    return out;
}

/** Codegen + static verification + timing simulation of a candidate.
 *  Returns false with a reject reason instead of dying: a candidate
 *  the verifier rejects is simply not taken. */
bool
evalCandidate(const AutotuneInputs &in, const Candidate &c,
              Working &out, std::string &reject)
{
    MtcgOptions mo;
    mo.queue_capacity = in.queue_capacity;
    out.s.partition = c.partition;
    out.s.plan = c.plan;
    out.s.plan_coco_iterations = c.plan_iters;
    out.s.placement_prov = c.placement_prov;
    out.s.prog =
        runMtcg(*in.f, *in.pdg, c.partition, c.plan, *in.cd, mo);
    QueueProvenance *qprov =
        in.record_provenance ? &out.s.queue_prov : nullptr;
    QueueAllocation alloc = in.max_queues > 0
                                ? allocateQueues(c.plan, in.max_queues,
                                                 qprov)
                                : identityQueues(c.plan, qprov);
    if (in.max_queues > 0)
        remapQueues(out.s.prog, alloc);
    out.s.queue_of = std::move(alloc.queue_of);

    // Every intermediate schedule must pass the static verifier (HB
    // race check included); a failing candidate is rejected, never
    // executed.
    MtVerifyInput vin;
    vin.orig = in.f;
    vin.pdg = in.pdg;
    vin.partition = &out.s.partition;
    vin.plan = &out.s.plan;
    vin.queue_of = &out.s.queue_of;
    vin.prog = &out.s.prog;
    vin.check_hb = true;
    MtVerifyResult vres = verifyMtProgram(vin);
    if (!vres.ok()) {
        reject = "verify-failed";
        return false;
    }

    MemoryImage mem = in.make_memory();
    CmpSimulator sim(in.machine, in.engine);
    SimResult r;
    if (in.engine == SimEngine::Fast) {
        out.decoded = decodeProgram(out.s.prog);
        out.has_decoded = true;
        r = sim.run(out.decoded, *in.ref_args, mem);
    } else {
        r = sim.run(out.s.prog, *in.ref_args, mem);
    }
    if (r.live_outs != *in.st_live_outs) {
        reject = "oracle-mismatch";
        return false;
    }
    out.s.cycles = r.cycles;
    return true;
}

/** Instrumented re-simulation of the current schedule -> StallReport
 *  for the next feedback round. */
StallReport
profileSchedule(const AutotuneInputs &in, const Working &w)
{
    return profileStalls(w.s.prog, w.has_decoded ? &w.decoded : nullptr,
                         w.s.plan, w.s.queue_of, *in.ref_args,
                         in.make_memory(), in.machine, in.engine,
                         w.s.cycles, nullptr, "the autotuner")
        .report;
}

/** The MT interpreter oracle + dynamic counts for an accepted
 *  schedule (a miscompare here is a compiler bug: die loudly). */
MtRunCounts
runAcceptedOracle(const AutotuneInputs &in, const AutotuneSchedule &s)
{
    return runCheckedMt(s.prog, *in.ref_args, in.make_memory(),
                        *in.st_live_outs, *in.st_final_mem,
                        "the autotuner's accepted schedule");
}

int
countMovedInstrs(const ThreadPartition &a, const ThreadPartition &b)
{
    int n = 0;
    for (size_t i = 0; i < a.assign.size() && i < b.assign.size(); ++i)
        if (a.assign[i] != b.assign[i])
            ++n;
    return n;
}

} // namespace

AutotuneResult
autotuneSchedule(const AutotuneInputs &in,
                 const AutotuneSchedule &baseline,
                 const AutotuneOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    GMT_ASSERT(in.f && in.pdg && in.cd && in.profile && in.ref_args &&
                   in.st_live_outs && in.st_final_mem &&
                   in.make_memory,
               "autotuneSchedule: incomplete inputs");

    AutotuneResult result;
    result.baseline_cycles = baseline.cycles;
    result.trajectory.push_back(baseline.cycles);

    // One-time setup below (baseline decode, SCC units) is charged to
    // the first iteration's wall clock: the cold round pays it, the
    // warm rounds reuse it.
    const auto setup_t0 = Clock::now();

    Working cur;
    cur.s = baseline;
    if (in.engine == SimEngine::Fast) {
        cur.decoded = decodeProgram(cur.s.prog);
        cur.has_decoded = true;
    }

    // PDG SCCs: the atomic migration units (a split SCC would create
    // a cross-thread dependence cycle).
    Digraph g = in.pdg->asDigraph();
    SccResult sccs = computeSccs(g);

    // Cross-iteration warm-start substrate for re-cut candidates
    // (flushed whenever an accepted move changes the partition).
    CocoArenaCache arena_cache;

    // Schedules already evaluated (or held): duplicates are recorded
    // but neither re-generated code for nor re-simulated, which is a
    // large share of the warm-iteration speedup.
    std::vector<std::pair<std::vector<int>, CommPlan>> tried;
    tried.emplace_back(baseline.partition.assign, baseline.plan);

    // Partitions whose base-profile plan was already solved once
    // (baseline included: passPlacement planned it under the base
    // profile) — reweight/migrate candidates reproducing one of these
    // are skipped before the cut solve.
    std::vector<std::vector<int>> tried_partitions;
    tried_partitions.push_back(baseline.partition.assign);

    // The stall report feeding each round. Round 1 profiles the
    // baseline; an accepting round profiles its new schedule before
    // closing (the profile is part of folding the accepted move's
    // feedback, so its cost is charged to the round that accepted),
    // and the next round starts from it without re-simulating.
    StallReport report;
    bool have_report = false;

    for (int it = 1; it <= opts.max_iterations; ++it) {
        auto t0 = it == 1 ? setup_t0 : Clock::now();
        result.iterations = it;

        if (!have_report)
            report = profileSchedule(in, cur);
        have_report = false;
        if (report.totalStallCycles() == 0) {
            result.converged = true;
            result.iter_wall_ms.push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count());
            break;
        }

        Feedback fb = deriveFeedback(in, cur.s, report);
        std::vector<AutotuneMove> invalid;
        std::vector<Candidate> cands = generateCandidates(
            in, cur, report, fb, sccs, arena_cache,
            result.warm_cut_reuses, tried_partitions, opts, invalid,
            it);

        // Invalid candidates (never simulated) are recorded first —
        // their order within the round is canonical too.
        for (AutotuneMove &m : invalid) {
            ++result.moves_rejected;
            result.moves.push_back(std::move(m));
        }

        // Acceptance threshold: relative epsilon on current cycles,
        // at least one cycle (strict improvement).
        const uint64_t min_gain = std::max<uint64_t>(
            1, static_cast<uint64_t>(std::ceil(
                   static_cast<double>(cur.s.cycles) *
                   opts.min_rel_improvement)));

        std::vector<Working> evals(cands.size());
        std::vector<size_t> move_of(cands.size());
        int best = -1;
        for (size_t ci = 0; ci < cands.size(); ++ci) {
            const Candidate &c = cands[ci];
            AutotuneMove m;
            m.iteration = it;
            m.kind = c.kind;
            m.detail = c.detail;
            m.queue = c.queue;
            m.stall_cycles = c.stall;
            m.moved_instrs =
                countMovedInstrs(cur.s.partition, c.partition);

            auto fp = std::make_pair(c.partition.assign, c.plan);
            if (std::find(tried.begin(), tried.end(), fp) !=
                tried.end()) {
                m.rejected_because = "duplicate";
            } else {
                tried.push_back(std::move(fp));
                std::string reject;
                if (!evalCandidate(in, c, evals[ci], reject)) {
                    m.rejected_because = reject;
                } else {
                    m.cycles = evals[ci].s.cycles;
                    if (m.cycles >= cur.s.cycles) {
                        m.rejected_because = "no-improvement";
                    } else if (cur.s.cycles - m.cycles < min_gain) {
                        m.rejected_because = "below-epsilon";
                    } else if (best < 0 ||
                               m.cycles <
                                   evals[static_cast<size_t>(best)]
                                       .s.cycles) {
                        best = static_cast<int>(ci);
                    }
                }
            }
            move_of[ci] = result.moves.size();
            result.moves.push_back(std::move(m));
        }

        if (best < 0) {
            for (size_t ci = 0; ci < cands.size(); ++ci)
                if (result.moves[move_of[ci]].rejected_because.empty())
                    result.moves[move_of[ci]].rejected_because =
                        "outscored";
            result.moves_rejected += static_cast<int>(cands.size());
            result.converged = true;
            result.iter_wall_ms.push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count());
            break;
        }

        // Accept the winner; every other candidate of the round is
        // rejected (qualifying ones as "outscored").
        for (size_t ci = 0; ci < cands.size(); ++ci) {
            AutotuneMove &m = result.moves[move_of[ci]];
            if (static_cast<int>(ci) == best) {
                m.accepted = true;
                ++result.moves_accepted;
            } else {
                if (m.rejected_because.empty())
                    m.rejected_because = "outscored";
                ++result.moves_rejected;
            }
        }

        const bool partition_changed =
            cands[static_cast<size_t>(best)].partition.assign !=
            cur.s.partition.assign;
        cur = std::move(evals[static_cast<size_t>(best)]);
        if (partition_changed)
            arena_cache.flush();

        result.counts = runAcceptedOracle(in, cur.s);
        if (opts.on_accept)
            opts.on_accept(cur.s);
        result.trajectory.push_back(cur.s.cycles);
        if (it < opts.max_iterations) {
            report = profileSchedule(in, cur);
            have_report = true;
        }
        result.iter_wall_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      t0)
                .count());
    }

    // Zero accepted moves: the final schedule is the baseline; fill
    // the dynamic counts from one oracle run so callers always get
    // them from here.
    if (result.moves_accepted == 0)
        result.counts = runAcceptedOracle(in, cur.s);

    result.final_schedule = std::move(cur.s);

    MetricsRegistry &mr = MetricsRegistry::global();
    mr.counter("autotune.iterations")
        .add(static_cast<uint64_t>(result.iterations));
    mr.counter("autotune.moves_accepted")
        .add(static_cast<uint64_t>(result.moves_accepted));
    mr.counter("autotune.moves_rejected")
        .add(static_cast<uint64_t>(result.moves_rejected));
    mr.counter("autotune.warm_cut_reuses").add(result.warm_cut_reuses);
    return result;
}

std::string
autotuneMovesJson(const AutotuneResult &r)
{
    std::ostringstream os;
    os << "{\"schema\":1,\"type\":\"autotune\"";
    os << ",\"baseline_cycles\":" << r.baseline_cycles;
    os << ",\"final_cycles\":" << r.final_schedule.cycles;
    os << ",\"iterations\":" << r.iterations;
    os << ",\"converged\":" << (r.converged ? "true" : "false");
    os << ",\"moves_accepted\":" << r.moves_accepted;
    os << ",\"moves_rejected\":" << r.moves_rejected;
    os << ",\"trajectory\":[";
    for (size_t i = 0; i < r.trajectory.size(); ++i)
        os << (i ? "," : "") << r.trajectory[i];
    os << "],\"moves\":[";
    for (size_t i = 0; i < r.moves.size(); ++i) {
        const AutotuneMove &m = r.moves[i];
        if (i)
            os << ",";
        os << "{\"iteration\":" << m.iteration << ",\"kind\":\""
           << jsonEscape(m.kind) << "\",\"detail\":\""
           << jsonEscape(m.detail) << "\",\"queue\":" << m.queue
           << ",\"stall_cycles\":" << m.stall_cycles
           << ",\"moved_instrs\":" << m.moved_instrs
           << ",\"cycles\":" << m.cycles << ",\"accepted\":"
           << (m.accepted ? "true" : "false")
           << ",\"rejected_because\":\""
           << jsonEscape(m.rejected_because) << "\"}";
    }
    os << "]}";
    return os.str();
}

Provenance
autotuneProvenance(const AutotuneInputs &in, const AutotuneResult &r,
                   const std::string &cell,
                   const std::string &workload,
                   const std::string &scheduler)
{
    const AutotuneSchedule &s = r.final_schedule;
    Provenance p;
    p.cell = cell;
    p.workload = workload;
    p.scheduler = scheduler;
    p.coco = in.use_coco;
    p.num_threads = in.num_threads;

    // Partition units: the tuned assignment is SCC-atomic by
    // construction (partitioners keep SCCs whole; migrations move
    // whole SCCs), so the PDG's components are the honest unit
    // structure of the final partition.
    Digraph g = in.pdg->asDigraph();
    SccResult sccs = computeSccs(g);
    p.partition.algorithm = scheduler + "+autotune";
    p.partition.num_threads = in.num_threads;
    p.partition.unit_of.assign(sccs.component.begin(),
                               sccs.component.end());
    p.partition.thread_of.assign(s.partition.assign.begin(),
                                 s.partition.assign.end());
    p.partition.units.resize(
        static_cast<size_t>(sccs.numComponents()));
    for (int c = 0; c < sccs.numComponents(); ++c) {
        UnitDecision &d =
            p.partition.units[static_cast<size_t>(c)];
        d.unit = c;
        d.order = c;
        d.thread = -1;
        d.first_instr = -1;
    }
    for (InstrId i = 0; i < in.f->numInstrs(); ++i) {
        UnitDecision &d = p.partition.units[static_cast<size_t>(
            sccs.component[i])];
        int t = s.partition.threadOf(i);
        GMT_ASSERT(d.thread == -1 || d.thread == t,
                   "autotune partition splits an SCC for ", cell);
        d.thread = t;
        d.work += in.profile->blockWeight(in.f->instr(i).block);
        ++d.num_members;
        if (d.first_instr < 0)
            d.first_instr = i;
    }

    // Placement and queue decisions, as recorded when the final
    // schedule was planned.
    GMT_ASSERT(in.record_provenance,
               "autotuneProvenance needs a recording loop run");
    p.placement = s.placement_prov;
    p.queues = s.queue_prov;
    return p;
}

StallRun
profileStalls(const MtProgram &prog, const DecodedProgram *decoded,
              const CommPlan &plan, const std::vector<int> &queue_of,
              const std::vector<int64_t> &args, MemoryImage mem,
              const MachineConfig &machine, SimEngine engine,
              uint64_t expect_cycles, TimelineBuilder *timeline,
              const std::string &what)
{
    CmpSimulator sim(machine, engine);
    StallRun out;
    sim.setProfile(&out.profile);
    sim.setTimeline(timeline);
    SimResult r = decoded ? sim.run(*decoded, args, mem)
                          : sim.run(prog, args, mem);
    GMT_ASSERT(r.cycles == expect_cycles,
               "instrumented rerun diverged from the timed run in ",
               what);
    std::string violation =
        checkStallConservation(out.profile, stallTotals(r));
    if (!violation.empty())
        panic("stall attribution broke conservation in ", what, " (",
              simEngineName(engine), " engine): ", violation);
    out.report =
        buildStallReport(out.profile, r.cycles, plan, queue_of, prog);
    return out;
}

} // namespace gmt
