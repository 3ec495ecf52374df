#include "coco/flow_graph.hpp"

#include <algorithm>

#include "coco/relevant.hpp"
#include "support/error.hpp"

namespace gmt
{

namespace
{

/**
 * The two cost terms that depend on the current relevant-branch sets,
 * evaluated at most once per block per epoch through the call's
 * memo, shared by both builders and diffFlowGraphCosts.
 */
class BlockCosts
{
  public:
    BlockCosts(const FlowGraphInputs &in, int ts, int tt)
        : in_(in), ts_(ts), tt_(tt), memo_(*in.cost_memo)
    {
        GMT_ASSERT(in.trans_deps != nullptr && in.rel_version != nullptr &&
                       in.cost_memo != nullptr,
                   "FlowGraphInputs::trans_deps, rel_version and "
                   "cost_memo are required");
        const std::tuple key{ts, tt, (*in.rel_version)[ts],
                             (*in.rel_version)[tt]};
        if (memo_.key != key) {
            memo_.key = key;
            ++memo_.epoch;
        }
        const size_t nb = static_cast<size_t>(in.f->numBlocks());
        if (memo_.stamp.size() != nb) {
            memo_.stamp.assign(nb, 0);
            memo_.relevant_src.assign(nb, 0);
            memo_.penalty.assign(nb, 0);
        }
    }

    /** Cost of a point in block @p b with profile weight @p base:
     *  infinite if the source thread may not communicate there
     *  (Property 2), else base plus the §3.1.2 penalty. */
    Capacity
    pointCost(BlockId b, Capacity base)
    {
        if (memo_.stamp[b] != memo_.epoch) {
            memo_.relevant_src[b] = relevantToSource(b) ? 1 : 0;
            memo_.penalty[b] = memo_.relevant_src[b] ? penaltyFor(b) : 0;
            memo_.stamp[b] = memo_.epoch;
        }
#ifndef NDEBUG
        // A growth without a version bump would serve stale terms
        // silently.
        GMT_ASSERT(memo_.relevant_src[b] == (relevantToSource(b) ? 1 : 0),
                   "stale block-cost memo (relevance) for B", b);
        GMT_ASSERT(!memo_.relevant_src[b] ||
                       memo_.penalty[b] == penaltyFor(b),
                   "stale block-cost memo (penalty) for B", b);
#endif
        return memo_.relevant_src[b] ? base + memo_.penalty[b]
                                     : kInfCapacity;
    }

  private:
    /** §3.1.2: weight of currently-irrelevant-to-tt branches that
     *  placing communication in @p b would force into tt. */
    Capacity
    penaltyFor(BlockId b) const
    {
        if (!in_.penalties)
            return 0;
        Capacity pen = 0;
        for (BlockId branch_block : (*in_.trans_deps)[b]) {
            if (!(*in_.relevant)[tt_].test(branch_block))
                pen += static_cast<Capacity>(
                    in_.profile->blockWeight(branch_block));
        }
        return pen;
    }

    /** Property 2: may the source thread communicate at block @p b? */
    bool
    relevantToSource(BlockId b) const
    {
        return isRelevantPoint(*in_.cd, (*in_.relevant)[ts_], b);
    }

    const FlowGraphInputs &in_;
    int ts_, tt_;
    BlockCostMemo &memo_;
};

} // namespace

RegOccurrences::RegOccurrences(const Function &f)
{
    // Two passes over the instructions: count, then fill. A register
    // an instruction names twice (a def that is also a use, a repeated
    // operand or live-out) gets one entry; the stamp finds it.
    const int nr = f.numRegs();
    std::vector<InstrId> stamp(nr, kNoInstr);
    auto forEachReg = [&](InstrId i, auto &&fn) {
        Reg def = f.defOf(i);
        if (def != kNoReg)
            fn(def, true);
        for (Reg use : f.usesOf(i))
            fn(use, false);
    };
    start_.assign(nr + 1, 0);
    for (InstrId i = 0; i < f.numInstrs(); ++i) {
        forEachReg(i, [&](Reg r, bool) {
            if (stamp[r] != i) {
                stamp[r] = i;
                ++start_[r + 1];
            }
        });
    }
    for (int r = 0; r < nr; ++r)
        start_[r + 1] += start_[r];

    occ_.resize(start_[nr]);
    std::vector<int> next(start_.begin(), start_.end() - 1);
    std::fill(stamp.begin(), stamp.end(), kNoInstr);
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        for (int pos = 0; pos < static_cast<int>(instrs.size()); ++pos) {
            InstrId i = instrs[pos];
            forEachReg(i, [&](Reg r, bool defines) {
                if (stamp[r] != i) {
                    stamp[r] = i;
                    occ_[next[r]++] = RegOccurrence{b, pos, i, false, false};
                }
                RegOccurrence &o = occ_[next[r] - 1];
                (defines ? o.defines : o.uses) = true;
            });
        }
    }
}

void
buildRegisterFlowGraph(const FlowGraphInputs &in,
                       const SafetyAnalysis &safety,
                       const ThreadLiveness &live, Reg r, int ts,
                       int tt, FlowGraph &out, FlowGraphScratch &sc)
{
    BlockCosts costs(in, ts, tt);
    GMT_ASSERT(in.occurrences != nullptr,
               "FlowGraphInputs::occurrences is required");
    const Function &f = *in.f;
    const Liveness &lv = live.liveness();
    const std::span<const RegOccurrence> occ = in.occurrences->of(r);
    out.clear();

    // The region: blocks where r is live-in or live-out w.r.t. tt, or
    // defined. Outside it no point is live (a counted use with no def
    // before it in the block would make r live-in), so such blocks
    // get no node and no arc, and walking only the region, ascending,
    // yields the whole-function graph node for node and arc for arc.
    auto &region = sc.region;
    auto &region_occ = sc.region_occ;
    region.clear();
    region_occ.clear();
    const int nocc = static_cast<int>(occ.size());
    int o = 0;
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const int first = o;
        bool defines = false;
        for (; o < nocc && occ[o].block == b; ++o)
            defines |= occ[o].defines;
        if (defines || lv.liveIn(b).test(r) || lv.liveOut(b).test(r)) {
            region.push_back(b);
            region_occ.emplace_back(first, o);
        }
    }

    // Per region block: point liveness of r w.r.t. tt (backward),
    // point safety of r for ts (forward, equation 1 on r's bit), and
    // the nodes — an entry node if r is live at position 0, one node
    // per instruction with a live point on either side. Both bits
    // change only at r's occurrences; between them they carry over.
    // Scratch rows of blocks outside the region are stale and never
    // read.
    FlowNetwork &net = out.net;
    auto &point_live = sc.point_live;
    auto &point_safe = sc.point_safe;
    auto &entry_node = sc.entry_node;
    auto &instr_node = sc.instr_node;
    point_live.resize(f.numBlocks());
    point_safe.resize(f.numBlocks());
    entry_node.resize(f.numBlocks());
    instr_node.resize(f.numBlocks());
    for (size_t k = 0; k < region.size(); ++k) {
        const BlockId b = region[k];
        const auto [first, last] = region_occ[k];
        const int size = static_cast<int>(f.block(b).size());
        auto &pl = point_live[b];
        pl.resize(size + 1);
        bool l = lv.liveOut(b).test(r);
        pl[size] = l;
        int hi = size;
        for (int j = last - 1; j >= first; --j) {
            const RegOccurrence &x = occ[j];
            std::fill(pl.begin() + x.pos + 1, pl.begin() + hi, l);
            if (x.defines)
                l = false;
            if (x.uses && live.usesCount(x.instr))
                l = true;
            pl[x.pos] = l;
            hi = x.pos;
        }
        std::fill(pl.begin(), pl.begin() + hi, l);

        auto &ps = point_safe[b];
        ps.resize(size + 1);
        bool safe = safety.safeIn(b).test(r);
        int lo = 0;
        for (int j = first; j < last; ++j) {
            const RegOccurrence &x = occ[j];
            std::fill(ps.begin() + lo, ps.begin() + x.pos + 1, safe);
            if (x.defines)
                safe = false; // any thread's redefinition invalidates
            if (in.partition->threadOf(x.instr) == ts)
                safe = true;
            lo = x.pos + 1;
        }
        std::fill(ps.begin() + lo, ps.end(), safe);

        entry_node[b] = pl[0] ? net.addNode() : -1;
        instr_node[b].assign(size, -1);
        for (int pos = 0; pos < size; ++pos) {
            if (pl[pos] || pl[pos + 1])
                instr_node[b][pos] = net.addNode();
        }
    }
    out.source = net.addNode();
    out.sink = net.addNode();

    auto pointCost = [&](BlockId b, int pos,
                         Capacity base) -> Capacity {
        if (!point_safe[b][pos])
            return kInfCapacity; // Property 3
        return costs.pointCost(b, base); // Property 2 + §3.1.2
    };
    // Cost record for diffFlowGraphCosts: safety is fixed for the
    // whole cocoOptimize call (it reads only the partition), so an
    // unsafe point is pinned; a safe point's cost is re-derivable
    // from its block and its weight's source alone.
    auto costRec = [&](BlockId b, int pos, BlockId edge_from = kNoBlock,
                       int edge_slot = -1) -> ArcCost {
        if (!point_safe[b][pos])
            return ArcCost{};
        return ArcCost{b, edge_from, edge_slot};
    };
    auto addArc = [&](int u, int v, Capacity cost, ProgramPoint p,
                      ArcCost rec) {
        int a = net.addArc(u, v, cost);
        GMT_ASSERT(static_cast<int>(out.arc_points.size()) == a);
        out.arc_points.push_back(p);
        out.arc_cost.push_back(rec);
    };

    // Chain arcs within blocks.
    for (BlockId b : region) {
        const int size = static_cast<int>(f.block(b).size());
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (entry_node[b] != -1 && size > 0 &&
            instr_node[b][0] != -1 && point_live[b][0]) {
            addArc(entry_node[b], instr_node[b][0],
                   pointCost(b, 0, bw), ProgramPoint{b, 0},
                   costRec(b, 0));
        }
        for (int pos = 0; pos + 1 < size; ++pos) {
            if (instr_node[b][pos] != -1 &&
                instr_node[b][pos + 1] != -1 &&
                point_live[b][pos + 1]) {
                addArc(instr_node[b][pos], instr_node[b][pos + 1],
                       pointCost(b, pos + 1, bw),
                       ProgramPoint{b, pos + 1}, costRec(b, pos + 1));
            }
        }
    }
    // Inter-block arcs. A successor has an entry node iff r is
    // live-in there, which also puts it in the region: test liveness
    // first, as its scratch rows are current only then.
    for (BlockId b : region) {
        const int size = static_cast<int>(f.block(b).size());
        if (size == 0)
            continue;
        int last = size - 1;
        if (instr_node[b][last] == -1)
            continue;
        const auto &succs = f.block(b).succs();
        for (size_t slot = 0; slot < succs.size(); ++slot) {
            BlockId s = succs[slot];
            if (!lv.liveIn(s).test(r) || entry_node[s] == -1)
                continue;
            Capacity ew = static_cast<Capacity>(
                in.profile->edgeWeight(b, static_cast<int>(slot)));
            // The point a cut of this arc selects: before the Jmp of
            // a single-successor block, or the entry of the (single-
            // predecessor, post-edge-split) target.
            ProgramPoint p = (succs.size() > 1)
                                 ? ProgramPoint{s, 0}
                                 : ProgramPoint{b, last};
            addArc(instr_node[b][last], entry_node[s],
                   pointCost(p.block, p.pos, ew), p,
                   costRec(p.block, p.pos, b, static_cast<int>(slot)));
        }
    }

    // Special arcs, from r's occurrences alone: S -> defs of r in ts
    // whose value lives on; uses "in tt" (owned, or a branch
    // replicated into tt) -> T.
    bool have_source = false, have_sink = false;
    for (size_t k = 0; k < region.size(); ++k) {
        const BlockId b = region[k];
        for (int j = region_occ[k].first; j < region_occ[k].second; ++j) {
            const RegOccurrence &x = occ[j];
            if (instr_node[b][x.pos] == -1)
                continue;
            if (x.defines && in.partition->threadOf(x.instr) == ts &&
                point_live[b][x.pos + 1]) {
                addArc(out.source, instr_node[b][x.pos], kInfCapacity,
                       ProgramPoint{kNoBlock, -1}, ArcCost{});
                have_source = true;
            }
            // Sinks: owned uses of tt, plus branches replicated into
            // tt — even when the branch itself is assigned to ts
            // (its replica in tt still needs the operand).
            if (x.uses && live.usesCount(x.instr)) {
                addArc(instr_node[b][x.pos], out.sink, kInfCapacity,
                       ProgramPoint{kNoBlock, -1}, ArcCost{});
                have_sink = true;
            }
        }
    }
    out.trivial = !have_source || !have_sink;
}

void
buildMemoryFlowGraph(const FlowGraphInputs &in,
                     const std::vector<std::pair<InstrId, InstrId>>
                         &dep_pairs,
                     int ts, int tt, FlowGraph &out,
                     FlowGraphScratch &sc)
{
    const Function &f = *in.f;
    out.clear();
    if (dep_pairs.empty()) {
        out.trivial = true;
        return;
    }

    // Whole-region graph: memory has no liveness restriction (§3.1.3).
    FlowNetwork &net = out.net;
    auto &entry_node = sc.entry_node;
    auto &instr_node = sc.instr_node;
    entry_node.assign(f.numBlocks(), -1);
    instr_node.resize(f.numBlocks());
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        entry_node[b] = net.addNode();
        const auto &instrs = f.block(b).instrs();
        instr_node[b].resize(instrs.size());
        for (size_t pos = 0; pos < instrs.size(); ++pos)
            instr_node[b][pos] = net.addNode();
    }

    // No safety constraint for pure synchronization; Property 2 still
    // forbids points irrelevant to the source thread.
    BlockCosts costs(in, ts, tt);
    auto pointCost = [&](BlockId b, Capacity base) -> Capacity {
        return costs.pointCost(b, base);
    };
    auto addArc = [&](int u, int v, Capacity cost, ProgramPoint p,
                      ArcCost rec) {
        int a = net.addArc(u, v, cost);
        GMT_ASSERT(static_cast<int>(out.arc_points.size()) == a);
        out.arc_points.push_back(p);
        out.arc_cost.push_back(rec);
    };

    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &instrs = f.block(b).instrs();
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (!instrs.empty()) {
            addArc(entry_node[b], instr_node[b][0], pointCost(b, bw),
                   ProgramPoint{b, 0}, ArcCost{b});
        }
        for (size_t pos = 0; pos + 1 < instrs.size(); ++pos) {
            addArc(instr_node[b][pos], instr_node[b][pos + 1],
                   pointCost(b, bw),
                   ProgramPoint{b, static_cast<int>(pos) + 1},
                   ArcCost{b});
        }
        int last = static_cast<int>(instrs.size()) - 1;
        const auto &succs = f.block(b).succs();
        for (size_t slot = 0; slot < succs.size(); ++slot) {
            BlockId s = succs[slot];
            Capacity ew = static_cast<Capacity>(
                in.profile->edgeWeight(b, static_cast<int>(slot)));
            ProgramPoint p = (succs.size() > 1)
                                 ? ProgramPoint{s, 0}
                                 : ProgramPoint{b, last};
            Capacity cost = (succs.size() > 1) ? pointCost(s, ew)
                                               : pointCost(b, ew);
            ArcCost rec{(succs.size() > 1) ? s : b, b,
                        static_cast<int>(slot)};
            addArc(instr_node[b][last], entry_node[s], cost, p, rec);
        }
    }

    for (auto [src, dst] : dep_pairs) {
        int sn = instr_node[f.instr(src).block][f.positionOf(src)];
        int tn = instr_node[f.instr(dst).block][f.positionOf(dst)];
        out.pairs.emplace_back(sn, tn);
    }
}

void
diffFlowGraphCosts(const FlowGraphInputs &in, int ts, int tt,
                   const FlowGraph &fg, std::vector<ArcDelta> &deltas)
{
    deltas.clear();
    BlockCosts costs(in, ts, tt);

    // Compare against the capacities the network currently stores:
    // no version bookkeeping needed for costs — the stored capacity
    // *is* the last-applied cost, whatever relevant-set state
    // produced it.
    for (int a = 0; a < static_cast<int>(fg.arc_cost.size()); ++a) {
        const ArcCost &c = fg.arc_cost[a];
        if (c.block == kNoBlock)
            continue; // pinned: special S/T arc or unsafe point
        Capacity cost = costs.pointCost(c.block, c.base(*in.profile));
        if (cost != fg.net.arcCapacity(a))
            deltas.push_back({a, cost, false});
    }
}

} // namespace gmt
