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
 * shared by both builders and diffFlowGraphCosts.
 */
class GraphBuilder
{
  public:
    GraphBuilder(const FlowGraphInputs &in, int ts, int tt)
        : in_(in), ts_(ts), tt_(tt)
    {
        GMT_ASSERT(in.trans_deps != nullptr,
                   "FlowGraphInputs::trans_deps is required");
    }

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

  private:
    const FlowGraphInputs &in_;
    int ts_, tt_;
};

} // namespace

std::vector<std::vector<BlockId>>
defBlocksByReg(const Function &f)
{
    std::vector<std::vector<BlockId>> out(f.numRegs());
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        for (InstrId i : f.block(b).instrs()) {
            Reg def = f.defOf(i);
            if (def != kNoReg && (out[def].empty() || out[def].back() != b))
                out[def].push_back(b);
        }
    }
    return out;
}

void
buildRegisterFlowGraph(const FlowGraphInputs &in,
                       const SafetyAnalysis &safety,
                       const ThreadLiveness &live, Reg r, int ts,
                       int tt, FlowGraph &out, FlowGraphScratch &sc)
{
    GraphBuilder gb(in, ts, tt);
    GMT_ASSERT(in.def_blocks != nullptr,
               "FlowGraphInputs::def_blocks is required");
    const Function &f = *in.f;
    const Liveness &lv = live.liveness();
    out.clear();

    // The region: blocks where r is live-in or live-out w.r.t. tt, or
    // defined. Outside it no point is live (a counted use with no def
    // before it in the block would make r live-in), so such blocks
    // get no node and no arc, and walking only the region, ascending,
    // yields the whole-function graph node for node and arc for arc.
    auto &region = sc.region;
    region.clear();
    const auto &defs = (*in.def_blocks)[r];
    auto next_def = defs.begin();
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        bool defines = next_def != defs.end() && *next_def == b;
        if (defines)
            ++next_def;
        if (defines || lv.liveIn(b).test(r) || lv.liveOut(b).test(r))
            region.push_back(b);
    }

    // Per region block: point liveness of r w.r.t. tt (backward),
    // point safety of r for ts (forward, equation 1 on r's bit), and
    // the nodes — an entry node if r is live at position 0, one node
    // per instruction with a live point on either side. Scratch rows
    // of blocks outside the region are stale and never read.
    FlowNetwork &net = out.net;
    auto &point_live = sc.point_live;
    auto &point_safe = sc.point_safe;
    auto &entry_node = sc.entry_node;
    auto &instr_node = sc.instr_node;
    point_live.resize(f.numBlocks());
    point_safe.resize(f.numBlocks());
    entry_node.resize(f.numBlocks());
    instr_node.resize(f.numBlocks());
    for (BlockId b : region) {
        const auto &instrs = f.block(b).instrs();
        const int size = static_cast<int>(instrs.size());
        auto &pl = point_live[b];
        pl.assign(size + 1, 0);
        bool l = lv.liveOut(b).test(r);
        pl[size] = l;
        for (int pos = size - 1; pos >= 0; --pos) {
            InstrId i = instrs[pos];
            if (f.defOf(i) == r)
                l = false;
            if (f.usesReg(i, r) && live.usesCount(i))
                l = true;
            pl[pos] = l;
        }

        auto &ps = point_safe[b];
        ps.assign(size + 1, 0);
        bool safe = safety.safeIn(b).test(r);
        ps[0] = safe;
        for (int pos = 0; pos < size; ++pos) {
            InstrId i = instrs[pos];
            bool defines = f.defOf(i) == r;
            if (defines)
                safe = false; // any thread's redefinition invalidates
            if ((defines || f.usesReg(i, r)) &&
                in.partition->threadOf(i) == ts)
                safe = true;
            ps[pos + 1] = safe;
        }

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
        if (!gb.relevantToSource(b))
            return kInfCapacity; // Property 2
        return base + gb.penaltyFor(b);
    };
    // Cost record for diffFlowGraphCosts: safety is fixed for the
    // whole cocoOptimize call (it reads only the partition), so an
    // unsafe point is pinned; a safe point's cost is re-derivable
    // from (block, base) alone.
    auto costRec = [&](BlockId b, int pos, Capacity base) -> ArcCost {
        if (!point_safe[b][pos])
            return ArcCost{};
        return ArcCost{b, base};
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
        const auto &instrs = f.block(b).instrs();
        Capacity bw = static_cast<Capacity>(in.profile->blockWeight(b));
        if (entry_node[b] != -1 && !instrs.empty() &&
            instr_node[b][0] != -1 && point_live[b][0]) {
            addArc(entry_node[b], instr_node[b][0],
                   pointCost(b, 0, bw), ProgramPoint{b, 0},
                   costRec(b, 0, bw));
        }
        for (size_t pos = 0; pos + 1 < instrs.size(); ++pos) {
            if (instr_node[b][pos] != -1 &&
                instr_node[b][pos + 1] != -1 &&
                point_live[b][pos + 1]) {
                addArc(instr_node[b][pos], instr_node[b][pos + 1],
                       pointCost(b, static_cast<int>(pos) + 1, bw),
                       ProgramPoint{b, static_cast<int>(pos) + 1},
                       costRec(b, static_cast<int>(pos) + 1, bw));
            }
        }
    }
    // Inter-block arcs. A successor has an entry node iff r is
    // live-in there, which also puts it in the region: test liveness
    // first, as its scratch rows are current only then.
    for (BlockId b : region) {
        const auto &instrs = f.block(b).instrs();
        if (instrs.empty())
            continue;
        int last = static_cast<int>(instrs.size()) - 1;
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
            Capacity cost = (succs.size() > 1)
                                ? pointCost(s, 0, ew)
                                : pointCost(b, last, ew);
            ArcCost rec = (succs.size() > 1) ? costRec(s, 0, ew)
                                             : costRec(b, last, ew);
            addArc(instr_node[b][last], entry_node[s], cost, p, rec);
        }
    }

    // Special arcs: S -> defs of r in ts whose value lives on; uses
    // "in tt" (owned, or a branch replicated into tt) -> T.
    bool have_source = false, have_sink = false;
    for (BlockId b : region) {
        const auto &instrs = f.block(b).instrs();
        for (size_t pos = 0; pos < instrs.size(); ++pos) {
            InstrId i = instrs[pos];
            if (instr_node[b][pos] == -1)
                continue;
            if (f.defOf(i) == r && in.partition->threadOf(i) == ts &&
                point_live[b][pos + 1]) {
                addArc(out.source, instr_node[b][pos], kInfCapacity,
                       ProgramPoint{kNoBlock, -1}, ArcCost{});
                have_source = true;
            }
            // Sinks: owned uses of tt, plus branches replicated into
            // tt — even when the branch itself is assigned to ts
            // (its replica in tt still needs the operand).
            if (f.usesReg(i, r) && live.usesCount(i)) {
                addArc(instr_node[b][pos], out.sink, kInfCapacity,
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
    GraphBuilder gb(in, ts, tt);
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

    auto pointCost = [&](BlockId b, Capacity base) -> Capacity {
        // No safety constraint for pure synchronization; Property 2
        // still forbids points irrelevant to the source thread.
        if (!gb.relevantToSource(b))
            return kInfCapacity;
        return base + gb.penaltyFor(b);
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
                   ProgramPoint{b, 0}, ArcCost{b, bw});
        }
        for (size_t pos = 0; pos + 1 < instrs.size(); ++pos) {
            addArc(instr_node[b][pos], instr_node[b][pos + 1],
                   pointCost(b, bw),
                   ProgramPoint{b, static_cast<int>(pos) + 1},
                   ArcCost{b, bw});
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
            ArcCost rec = (succs.size() > 1) ? ArcCost{s, ew}
                                             : ArcCost{b, ew};
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
                   const FlowGraph &fg, FlowGraphScratch &sc,
                   std::vector<ArcDelta> &deltas)
{
    deltas.clear();
    GraphBuilder gb(in, ts, tt);
    const Function &f = *in.f;

    // Evaluate the two relevant-set-dependent cost terms once per
    // block (the builders evaluate them once per arc).
    sc.block_relevant_src.assign(f.numBlocks(), 0);
    sc.block_penalty.assign(f.numBlocks(), 0);
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        sc.block_relevant_src[b] = gb.relevantToSource(b) ? 1 : 0;
        if (sc.block_relevant_src[b])
            sc.block_penalty[b] = gb.penaltyFor(b);
    }

    // Compare against the capacities the network currently stores:
    // no version bookkeeping needed for costs — the stored capacity
    // *is* the last-applied cost, whatever relevant-set state
    // produced it.
    for (int a = 0; a < static_cast<int>(fg.arc_cost.size()); ++a) {
        const ArcCost &c = fg.arc_cost[a];
        if (c.block == kNoBlock)
            continue; // pinned: special S/T arc or unsafe point
        Capacity cost = sc.block_relevant_src[c.block]
                            ? c.base + sc.block_penalty[c.block]
                            : kInfCapacity;
        if (cost != fg.net.arcCapacity(a))
            deltas.push_back({a, cost, false});
    }
}

} // namespace gmt
