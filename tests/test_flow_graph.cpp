#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "analysis/dominators.hpp"
#include "coco/flow_graph.hpp"
#include "coco/relevant.hpp"
#include "driver/pass_manager.hpp"
#include "ir/builder.hpp"
#include "support/rng.hpp"
#include "workloads/generate.hpp"
#include "workloads/serialize.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// ---------------------------------------------------------------------
// Reference oracle: the whole-function register flow-graph builder the
// region-restricted one replaced. It walks every block and every
// instruction of the function, with a full safe-register set per
// block; the region builder must produce the same graph arc for arc.
// ---------------------------------------------------------------------

bool
referenceUses(const Function &f, InstrId i, Reg r)
{
    RegUses uses = f.usesOf(i);
    return std::find(uses.begin(), uses.end(), r) != uses.end();
}

void
referenceRegisterFlowGraph(const FlowGraphInputs &in,
                           const SafetyAnalysis &safety,
                           const ThreadLiveness &live, Reg r, int ts,
                           int tt, FlowGraph &out)
{
    const Function &f = *in.f;
    const int nb = f.numBlocks();
    out.clear();

    auto penaltyFor = [&](BlockId b) {
        Capacity pen = 0;
        if (!in.penalties)
            return pen;
        for (BlockId branch_block : (*in.trans_deps)[b])
            if (!(*in.relevant)[tt].test(branch_block))
                pen += static_cast<Capacity>(
                    in.profile->blockWeight(branch_block));
        return pen;
    };

    std::vector<std::vector<char>> point_live(nb), point_safe(nb);
    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        point_live[b].assign(instrs.size() + 1, 0);
        bool l = live.liveness().liveOut(b).test(r);
        point_live[b][instrs.size()] = l;
        for (int pos = static_cast<int>(instrs.size()) - 1; pos >= 0;
             --pos) {
            InstrId i = instrs[pos];
            if (f.defOf(i) == r)
                l = false;
            if (live.usesCount(i) && referenceUses(f, i, r))
                l = true;
            point_live[b][pos] = l;
        }

        point_safe[b].assign(instrs.size() + 1, 0);
        BitVector safe = safety.safeIn(b);
        for (size_t pos = 0; pos <= instrs.size(); ++pos) {
            if (pos > 0) {
                InstrId i = instrs[pos - 1];
                Reg def = f.defOf(i);
                if (def != kNoReg)
                    safe.reset(def);
                if (in.partition->threadOf(i) == ts) {
                    if (def != kNoReg)
                        safe.set(def);
                    for (Reg use : f.usesOf(i))
                        safe.set(use);
                }
            }
            point_safe[b][pos] = safe.test(r);
        }
    }

    FlowNetwork &net = out.net;
    std::vector<int> entry_node(nb, -1);
    std::vector<std::vector<int>> instr_node(nb);
    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        instr_node[b].assign(instrs.size(), -1);
        if (point_live[b][0])
            entry_node[b] = net.addNode();
        for (size_t pos = 0; pos < instrs.size(); ++pos)
            if (point_live[b][pos] || point_live[b][pos + 1])
                instr_node[b][pos] = net.addNode();
    }
    out.source = net.addNode();
    out.sink = net.addNode();

    auto pointCost = [&](BlockId b, int pos, Capacity base) {
        if (!point_safe[b][pos] ||
            !isRelevantPoint(*in.cd, (*in.relevant)[ts], b))
            return kInfCapacity;
        return base + penaltyFor(b);
    };
    auto costRec = [&](BlockId b, int pos, BlockId edge_from = kNoBlock,
                       int edge_slot = -1) {
        return point_safe[b][pos] ? ArcCost{b, edge_from, edge_slot}
                                  : ArcCost{};
    };
    auto addArc = [&](int u, int v, Capacity cost, ProgramPoint p,
                      ArcCost rec) {
        net.addArc(u, v, cost);
        out.arc_points.push_back(p);
        out.arc_cost.push_back(rec);
    };

    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (entry_node[b] != -1 && !instrs.empty() &&
            instr_node[b][0] != -1 && point_live[b][0])
            addArc(entry_node[b], instr_node[b][0], pointCost(b, 0, bw),
                   {b, 0}, costRec(b, 0));
        for (int pos = 0; pos + 1 < static_cast<int>(instrs.size());
             ++pos)
            if (instr_node[b][pos] != -1 &&
                instr_node[b][pos + 1] != -1 && point_live[b][pos + 1])
                addArc(instr_node[b][pos], instr_node[b][pos + 1],
                       pointCost(b, pos + 1, bw), {b, pos + 1},
                       costRec(b, pos + 1));
    }
    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        if (instrs.empty())
            continue;
        int last = static_cast<int>(instrs.size()) - 1;
        if (instr_node[b][last] == -1)
            continue;
        const auto &succs = f.block(b).succs();
        for (size_t slot = 0; slot < succs.size(); ++slot) {
            BlockId s = succs[slot];
            if (entry_node[s] == -1 || !point_live[s][0])
                continue;
            Capacity ew = static_cast<Capacity>(
                in.profile->edgeWeight(b, static_cast<int>(slot)));
            bool multi = succs.size() > 1;
            ProgramPoint p = multi ? ProgramPoint{s, 0}
                                   : ProgramPoint{b, last};
            addArc(instr_node[b][last], entry_node[s],
                   pointCost(p.block, p.pos, ew), p,
                   costRec(p.block, p.pos, b, static_cast<int>(slot)));
        }
    }

    bool have_source = false, have_sink = false;
    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            InstrId i = instrs[pos];
            if (instr_node[b][pos] == -1)
                continue;
            if (f.defOf(i) == r && in.partition->threadOf(i) == ts &&
                point_live[b][pos + 1]) {
                addArc(out.source, instr_node[b][pos], kInfCapacity,
                       {kNoBlock, -1}, ArcCost{});
                have_source = true;
            }
            if (live.usesCount(i) && referenceUses(f, i, r)) {
                addArc(instr_node[b][pos], out.sink, kInfCapacity,
                       {kNoBlock, -1}, ArcCost{});
                have_sink = true;
            }
        }
    }
    out.trivial = !have_source || !have_sink;
}

/** Graph equality down to every arc's endpoints, cost and record. */
void
expectSameGraph(const FlowGraph &got, const FlowGraph &want,
                const std::string &what)
{
    ASSERT_EQ(got.net.numNodes(), want.net.numNodes()) << what;
    ASSERT_EQ(got.net.numArcs(), want.net.numArcs()) << what;
    EXPECT_EQ(got.source, want.source) << what;
    EXPECT_EQ(got.sink, want.sink) << what;
    EXPECT_EQ(got.trivial, want.trivial) << what;
    ASSERT_EQ(got.arc_points.size(), want.arc_points.size()) << what;
    ASSERT_EQ(got.arc_cost.size(), want.arc_cost.size()) << what;
    for (int a = 0; a < want.net.numArcs(); ++a) {
        ASSERT_EQ(got.net.arcTail(a), want.net.arcTail(a))
            << what << " arc " << a;
        ASSERT_EQ(got.net.arcHead(a), want.net.arcHead(a))
            << what << " arc " << a;
        ASSERT_EQ(got.net.arcCapacity(a), want.net.arcCapacity(a))
            << what << " arc " << a;
        ASSERT_EQ(got.arc_points[a], want.arc_points[a])
            << what << " arc " << a;
        ASSERT_EQ(got.arc_cost[a].block, want.arc_cost[a].block)
            << what << " arc " << a;
        ASSERT_EQ(got.arc_cost[a].edge_from, want.arc_cost[a].edge_from)
            << what << " arc " << a;
        ASSERT_EQ(got.arc_cost[a].edge_slot, want.arc_cost[a].edge_slot)
            << what << " arc " << a;
    }
}

// ---------------------------------------------------------------------
// Reference PDG: the arc list as built before the per-register site
// lists and the append-only builder, with every arc deduplicated on
// (src, dst, kind, reg) by a scan of its source's list. Its digraph,
// built through Digraph::addEdge, checks the SCCs.
// ---------------------------------------------------------------------

struct ReferencePdg
{
    std::vector<PdgArc> arcs;
    std::vector<std::vector<int>> from, to;

    void
    add(PdgArc arc)
    {
        for (int a : from[arc.src]) {
            const PdgArc &e = arcs[a];
            if (e.dst == arc.dst && e.kind == arc.kind && e.reg == arc.reg)
                return;
        }
        from[arc.src].push_back(static_cast<int>(arcs.size()));
        to[arc.dst].push_back(static_cast<int>(arcs.size()));
        arcs.push_back(arc);
    }
};

ReferencePdg
referencePdg(const Function &f)
{
    ReferencePdg pdg;
    pdg.from.resize(f.numInstrs());
    pdg.to.resize(f.numInstrs());

    // Register arcs: reaching definitions, every reaching def tested
    // against each use.
    std::vector<InstrId> def_sites;
    std::vector<int> site_of(f.numInstrs(), -1);
    for (InstrId i = 0; i < f.numInstrs(); ++i) {
        if (f.defOf(i) != kNoReg) {
            site_of[i] = static_cast<int>(def_sites.size());
            def_sites.push_back(i);
        }
    }
    const int nd = static_cast<int>(def_sites.size());
    const int nb = f.numBlocks();
    std::vector<std::vector<int>> sites_of_reg(f.numRegs());
    for (int s = 0; s < nd; ++s)
        sites_of_reg[f.defOf(def_sites[s])].push_back(s);
    std::vector<BitVector> gen(nb, BitVector(nd)), kill(nb, BitVector(nd));
    for (BlockId b = 0; b < nb; ++b) {
        for (InstrId i : f.block(b).instrs()) {
            Reg def = f.defOf(i);
            if (def == kNoReg)
                continue;
            for (int s : sites_of_reg[def]) {
                gen[b].reset(s);
                kill[b].set(s);
            }
            gen[b].set(site_of[i]);
        }
    }
    std::vector<BitVector> in(nb, BitVector(nd)), out(nb, BitVector(nd));
    for (bool changed = true; changed;) {
        changed = false;
        for (BlockId b = 0; b < nb; ++b) {
            BitVector new_in(nd);
            for (BlockId p : f.block(b).preds())
                new_in.unionWith(out[p]);
            BitVector new_out = new_in;
            new_out.subtract(kill[b]);
            new_out.unionWith(gen[b]);
            changed |= !(new_in == in[b]) || !(new_out == out[b]);
            in[b] = std::move(new_in);
            out[b] = std::move(new_out);
        }
    }
    for (BlockId b = 0; b < nb; ++b) {
        BitVector reaching = in[b];
        for (InstrId i : f.block(b).instrs()) {
            for (Reg use : f.usesOf(i)) {
                reaching.forEach([&](size_t s) {
                    if (f.defOf(def_sites[s]) == use)
                        pdg.add({def_sites[s], i, DepKind::Register, use,
                                 MemDepKind::Flow});
                });
            }
            Reg def = f.defOf(i);
            if (def != kNoReg) {
                for (int s : sites_of_reg[def])
                    reaching.reset(s);
                reaching.set(site_of[i]);
            }
        }
    }

    for (const MemDep &dep : computeMemDeps(f))
        pdg.add({dep.src, dep.dst, DepKind::Memory, kNoReg, dep.kind});

    auto pdom = DominatorTree::postDominators(f);
    ControlDependence cd(f, pdom);
    for (BlockId a = 0; a < nb; ++a) {
        const BasicBlock &bb = f.block(a);
        if (bb.succs().size() < 2)
            continue;
        InstrId branch = bb.terminator();
        for (BlockId c : cd.controlledBy(a))
            for (InstrId i : f.block(c).instrs())
                if (i != branch)
                    pdg.add({branch, i, DepKind::Control, kNoReg,
                             MemDepKind::Flow});
    }
    return pdg;
}

void
expectSamePdg(const Function &f, const Pdg &pdg, const std::string &what)
{
    ReferencePdg ref = referencePdg(f);
    ASSERT_EQ(pdg.numArcs(), static_cast<int>(ref.arcs.size())) << what;
    for (int a = 0; a < pdg.numArcs(); ++a) {
        const PdgArc &got = pdg.arc(a);
        const PdgArc &want = ref.arcs[a];
        ASSERT_EQ(std::tie(got.src, got.dst, got.kind, got.reg,
                           got.mem_kind),
                  std::tie(want.src, want.dst, want.kind, want.reg,
                           want.mem_kind))
            << what << " arc " << a;
    }
    for (InstrId i = 0; i < f.numInstrs(); ++i) {
        ASSERT_EQ(pdg.arcsFrom(i), ref.from[i]) << what << " i" << i;
        ASSERT_EQ(pdg.arcsTo(i), ref.to[i]) << what << " i" << i;
    }

    // The MemDep list the Pdg keeps is computeMemDeps' list, in order.
    std::vector<MemDep> deps = computeMemDeps(f);
    ASSERT_EQ(pdg.memDeps().size(), deps.size()) << what;
    for (size_t k = 0; k < deps.size(); ++k)
        ASSERT_EQ(std::tie(pdg.memDeps()[k].src, pdg.memDeps()[k].dst,
                           pdg.memDeps()[k].kind),
                  std::tie(deps[k].src, deps[k].dst, deps[k].kind))
            << what << " mem dep " << k;

    // The pdg pass's SCCs, taken over the arc lists without building
    // a digraph, are the reference digraph's.
    Digraph want(f.numInstrs());
    for (const PdgArc &arc : ref.arcs)
        want.addEdge(arc.src, arc.dst);
    SccResult want_sccs = computeSccs(want);
    SccResult got_sccs = pdgSccs(pdg);
    ASSERT_EQ(got_sccs.component, want_sccs.component) << what;
    ASSERT_EQ(got_sccs.members, want_sccs.members) << what;
}

/**
 * Block reachability as computed before the SCC condensation: the
 * successor sets unioned to a fixpoint. BlockReachability must agree
 * on every ordered pair of blocks.
 */
void
expectSameReach(const Function &f, const std::string &what)
{
    const int nb = f.numBlocks();
    std::vector<BitVector> reach(nb, BitVector(nb));
    for (BlockId b = 0; b < nb; ++b)
        for (BlockId s : f.block(b).succs())
            reach[b].set(s);
    for (bool changed = true; changed;) {
        changed = false;
        for (BlockId b = 0; b < nb; ++b)
            for (BlockId s : f.block(b).succs())
                changed |= reach[b].unionWith(reach[s]);
    }
    BlockReachability got(f);
    for (BlockId a = 0; a < nb; ++a)
        for (BlockId b = 0; b < nb; ++b)
            ASSERT_EQ(got.reaches(a, b), reach[a].test(b))
                << what << " B" << a << " -> B" << b;
}

// ---------------------------------------------------------------------
// Reference dataflow: SafetyAnalysis and Liveness as they ran before
// their block summaries, every instruction's transfer re-applied on
// every round-robin sweep. The fixpoints are unique, so the block
// summaries must reach the same in-set and out-set at every block.
// ---------------------------------------------------------------------

struct BlockSets
{
    std::vector<BitVector> in, out;
};

BlockSets
referenceSafety(const Function &f, const ThreadPartition &part, int ts)
{
    const int nb = f.numBlocks();
    const int nr = f.numRegs();
    auto transfer = [&](BitVector &safe, InstrId i) {
        Reg def = f.defOf(i);
        if (def != kNoReg)
            safe.reset(def);
        if (part.threadOf(i) == ts) {
            if (def != kNoReg)
                safe.set(def);
            for (Reg use : f.usesOf(i))
                safe.set(use);
        }
    };
    BlockSets s;
    s.in.assign(nb, BitVector(nr));
    for (auto &v : s.in)
        v.setAll();
    for (bool changed = true; changed;) {
        changed = false;
        for (BlockId b = 0; b < nb; ++b) {
            BitVector in(nr);
            if (b == f.entry()) {
                in.setAll();
            } else {
                bool first = true;
                for (BlockId p : f.block(b).preds()) {
                    BitVector out = s.in[p];
                    for (InstrId i : f.block(p).instrs())
                        transfer(out, i);
                    if (first)
                        in = std::move(out);
                    else
                        in.intersectWith(out);
                    first = false;
                }
            }
            if (!(in == s.in[b])) {
                s.in[b] = std::move(in);
                changed = true;
            }
        }
    }
    s.out = s.in;
    for (BlockId b = 0; b < nb; ++b)
        for (InstrId i : f.block(b).instrs())
            transfer(s.out[b], i);
    return s;
}

/** @p counts decides whether an instruction's uses count. */
template <typename Counts>
BlockSets
referenceLiveness(const Function &f, Counts &&counts)
{
    const int nb = f.numBlocks();
    const int nr = f.numRegs();
    BlockSets s;
    s.in.assign(nb, BitVector(nr));
    s.out.assign(nb, BitVector(nr));
    for (bool changed = true; changed;) {
        changed = false;
        for (BlockId b = nb - 1; b >= 0; --b) {
            BitVector out(nr);
            for (BlockId succ : f.block(b).succs())
                out.unionWith(s.in[succ]);
            BitVector in = out;
            const auto &instrs = f.block(b).instrs();
            for (auto it = instrs.rbegin(); it != instrs.rend(); ++it) {
                Reg def = f.defOf(*it);
                if (def != kNoReg)
                    in.reset(def);
                if (counts(*it))
                    for (Reg use : f.usesOf(*it))
                        in.set(use);
            }
            changed |= !(out == s.out[b]) || !(in == s.in[b]);
            s.out[b] = std::move(out);
            s.in[b] = std::move(in);
        }
    }
    return s;
}

/** Block summaries vs the reference: safety of every thread, plain
 *  liveness, and every thread's liveness under its initial relevant
 *  branches. */
void
expectSameDataflow(const PipelineContext &ctx)
{
    const Function &f = ctx.ir->func;
    const ThreadPartition &part = ctx.partition->partition;
    const std::string cell = ctx.cellId();
    auto expectSets = [&](const BlockSets &want, auto &&in, auto &&out,
                          const std::string &what) {
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            ASSERT_EQ(in(b), want.in[b]) << what << " in B" << b;
            ASSERT_EQ(out(b), want.out[b]) << what << " out B" << b;
        }
    };

    const std::vector<SafetyAnalysis> safety = safetyPerThread(f, part);
    for (int t = 0; t < part.num_threads; ++t) {
        expectSets(
            referenceSafety(f, part, t),
            [&](BlockId b) { return safety[t].safeIn(b); },
            [&](BlockId b) { return safety[t].safeOut(b); },
            cell + " safety T" + std::to_string(t));
    }

    Liveness plain(f);
    expectSets(
        referenceLiveness(f, [](InstrId) { return true; }),
        [&](BlockId b) { return plain.liveIn(b); },
        [&](BlockId b) { return plain.liveOut(b); }, cell + " liveness");

    const std::vector<BitVector> relevant =
        initRelevantBranches(f, ctx.pdg->cd, part);
    for (int t = 0; t < part.num_threads; ++t) {
        ThreadLiveness live(f, part, t, relevant[t]);
        expectSets(
            referenceLiveness(f,
                              [&](InstrId i) { return live.usesCount(i); }),
            [&](BlockId b) { return live.liveness().liveIn(b); },
            [&](BlockId b) { return live.liveness().liveOut(b); },
            cell + " liveness T" + std::to_string(t));
    }
}

// ---------------------------------------------------------------------
// Differential driver over one cell.
// ---------------------------------------------------------------------

/** The cell's artifacts through the partition pass. */
PipelineContext
partitioned(const Workload &w, Scheduler sched)
{
    PipelineOptions po;
    po.scheduler = sched;
    PipelineContext ctx(w, po);
    const PassManager codegen = PassManager::codegenPipeline();
    PassManager pm;
    for (const auto &pass : codegen.passes()) {
        pm.addPass(pass.name, pass.run);
        if (pass.name == "partition")
            break;
    }
    pm.run(ctx);
    return ctx;
}

/** The register problems COCO poses under @p relevant: each register
 *  arc's register, from its source thread to each other thread that
 *  needs the value (the destination's owner, or a thread the
 *  destination branch is replicated into). */
std::set<std::tuple<int, int, Reg>>
registerProblems(const Function &f, const Pdg &pdg,
                 const ThreadPartition &part,
                 const std::vector<BitVector> &relevant)
{
    std::set<std::tuple<int, int, Reg>> problems;
    for (const PdgArc &arc : pdg.arcs()) {
        if (arc.kind != DepKind::Register)
            continue;
        int ts = part.threadOf(arc.src);
        for (int tt = 0; tt < part.num_threads; ++tt) {
            bool needs = tt == part.threadOf(arc.dst) ||
                         (f.instr(arc.dst).isBranch() &&
                          relevant[tt].test(f.instr(arc.dst).block));
            if (tt != ts && needs)
                problems.insert({ts, tt, arc.reg});
        }
    }
    return problems;
}

/**
 * Every register problem of the cell built by both builders, under
 * the initial relevant-branch sets and then under randomly grown
 * ones, through one scratch and one block-cost memo that stay live:
 * every growth bumps the thread's relevant-set version, as
 * cocoOptimize does. In the grown round,
 * every fourth problem also grows a random thread's set mid-round and
 * refreshes the built graph's costs through diffFlowGraphCosts; the
 * result must equal a fresh reference build. Returns the number of
 * non-trivial graphs compared.
 */
int
checkRegisterGraphs(const PipelineContext &ctx, uint64_t seed)
{
    const Function &f = ctx.ir->func;
    const ControlDependence &cd = ctx.pdg->cd;
    const ThreadPartition &part = ctx.partition->partition;
    const int nt = part.num_threads;

    const std::vector<SafetyAnalysis> safety = safetyPerThread(f, part);
    std::vector<std::vector<BlockId>> trans_deps(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b)
        trans_deps[b] = cd.transitiveDeps(b);
    const RegOccurrences occurrences(f);
    std::vector<BitVector> relevant = initRelevantBranches(f, cd, part);
    std::vector<uint64_t> rel_version(nt, 0);
    BlockCostMemo cost_memo;
    const FlowGraphInputs in{&f,           &cd,       &ctx.profile->profile,
                             &part,        &relevant, &trans_deps,
                             &occurrences, &rel_version, &cost_memo,
                             true};

    FlowGraphScratch scratch; // shared, as in one COCO arena
    FlowGraph got, want;
    std::vector<ArcDelta> deltas;
    int nontrivial = 0;
    Rng rng(seed);
    auto growRandom = [&](int t) {
        BlockId b = static_cast<BlockId>(rng.nextBelow(f.numBlocks()));
        if (growRelevantForPoint(f, cd, relevant[t], {b, 0}))
            ++rel_version[t];
    };
    for (int round = 0; round < 2; ++round) {
        if (round == 1) {
            // Grow every thread's set from a few random points.
            for (int t = 0; t < nt; ++t)
                for (int k = 0; k < 3; ++k)
                    growRandom(t);
        }
        std::vector<std::unique_ptr<ThreadLiveness>> live;
        for (int t = 0; t < nt; ++t)
            live.push_back(std::make_unique<ThreadLiveness>(
                f, part, t, relevant[t]));
        int k = 0;
        for (auto [ts, tt, r] :
             registerProblems(f, ctx.pdg->pdg, part, relevant)) {
            std::string what = ctx.cellId() + " round " +
                               std::to_string(round) + " T" +
                               std::to_string(ts) + "->T" +
                               std::to_string(tt) + " r" +
                               std::to_string(r);
            buildRegisterFlowGraph(in, safety[ts], *live[tt], r, ts, tt,
                                   got, scratch);
            referenceRegisterFlowGraph(in, safety[ts], *live[tt], r, ts,
                                       tt, want);
            expectSameGraph(got, want, what);
            if (::testing::Test::HasFatalFailure())
                return nontrivial;
            nontrivial += want.trivial ? 0 : 1;

            if (round == 1 && ++k % 4 == 0) {
                // Same liveness snapshot, so the same topology; only
                // the costs follow the grown sets.
                growRandom(static_cast<int>(rng.nextBelow(nt)));
                diffFlowGraphCosts(in, ts, tt, got, deltas);
                for (const ArcDelta &d : deltas)
                    got.net.setArcCapacity(d.arc, d.cap);
                referenceRegisterFlowGraph(in, safety[ts], *live[tt], r,
                                           ts, tt, want);
                expectSameGraph(got, want, what + " after diff");
                if (::testing::Test::HasFatalFailure())
                    return nontrivial;
            }
        }
    }
    return nontrivial;
}

void
checkCell(const Workload &w, uint64_t seed, int *nontrivial)
{
    for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
        PipelineContext ctx = partitioned(w, sched);
        expectSameReach(ctx.ir->func, ctx.cellId());
        expectSamePdg(ctx.ir->func, ctx.pdg->pdg, ctx.cellId());
        expectSameDataflow(ctx);
        *nontrivial += checkRegisterGraphs(ctx, seed++);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** A block reaches itself exactly when it lies on a cycle: a self
 *  loop and a two-block loop do, the straight-line blocks around them
 *  do not. */
TEST(BlockReach, SelfReachIffOnCycle)
{
    FunctionBuilder b("loops");
    Reg n = b.param();
    BlockId entry = b.newBlock("entry");
    BlockId self = b.newBlock("self");
    BlockId head = b.newBlock("head");
    BlockId body = b.newBlock("body");
    BlockId exit = b.newBlock("exit");
    b.setBlock(entry);
    b.jmp(self);
    b.setBlock(self);
    b.br(n, self, head);
    b.setBlock(head);
    b.br(n, body, exit);
    b.setBlock(body);
    b.jmp(head);
    b.setBlock(exit);
    b.ret({n});
    Function f = b.finish();

    BlockReachability reach(f);
    EXPECT_FALSE(reach.reaches(entry, entry));
    EXPECT_TRUE(reach.reaches(self, self));
    EXPECT_TRUE(reach.reaches(head, head));
    EXPECT_TRUE(reach.reaches(body, body));
    EXPECT_FALSE(reach.reaches(exit, exit));
    EXPECT_TRUE(reach.reaches(entry, exit));
    EXPECT_TRUE(reach.reaches(body, exit));
    EXPECT_FALSE(reach.reaches(head, self));
    expectSameReach(f, "loops");
}

TEST(FlowGraphDiff, WorkloadMatrix)
{
    int nontrivial = 0;
    uint64_t seed = 1;
    for (const Workload &w : allWorkloads()) {
        checkCell(w, seed, &nontrivial);
        seed += 2;
    }
    EXPECT_GT(nontrivial, 0);
}

TEST(FlowGraphDiff, GeneratedCells)
{
    int nontrivial = 0;
    for (uint64_t seed : {3u, 11u, 23u, 47u, 91u})
        checkCell(generateWorkload(seed), seed, &nontrivial);
    EXPECT_GT(nontrivial, 0);
}

/** The frozen benchmark ladder (read only): the largest graphs. */
TEST(FlowGraphDiff, LadderCells)
{
    int nontrivial = 0;
    uint64_t seed = 100;
    for (const char *name : {"ladder-500.gmt", "ladder-1500.gmt",
                             "ladder-3000.gmt", "ladder-5000.gmt"}) {
        Workload w = loadWorkloadFile(std::string(GMT_LADDER_DIR) + "/" +
                                      name);
        checkCell(w, seed, &nontrivial);
        seed += 2;
    }
    EXPECT_GT(nontrivial, 0);
}

} // namespace
} // namespace gmt
