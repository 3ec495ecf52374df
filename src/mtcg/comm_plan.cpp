#include "mtcg/comm_plan.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "support/error.hpp"

namespace gmt
{

RelevantSets::RelevantSets(const Function &f, const ControlDependence &cd,
                           const ThreadPartition &partition,
                           const CommPlan &plan)
{
    const int nt = partition.num_threads;
    const int nb = f.numBlocks();
    branches_.assign(nt, BitVector(nb));
    needed_.assign(nt, BitVector(nb));

    for (int t = 0; t < nt; ++t) {
        BitVector &needed = needed_[t];
        BitVector &relevant = branches_[t];
        std::vector<BlockId> work;

        auto need = [&](BlockId b) {
            if (!needed.test(b)) {
                needed.set(b);
                work.push_back(b);
            }
        };

        // Seed 1: blocks of instructions assigned to t (and mark
        // branches assigned to t relevant — Definition 1 rule 1).
        for (InstrId i = 0; i < f.numInstrs(); ++i) {
            if (partition.threadOf(i) != t)
                continue;
            need(f.instr(i).block);
            if (f.instr(i).isBranch())
                relevant.set(f.instr(i).block);
        }
        // Seed 2: blocks of communication points involving t.
        for (const auto &pl : plan.placements) {
            if (pl.src_thread != t && pl.dst_thread != t)
                continue;
            for (const auto &p : pl.points)
                need(p.block);
        }
        // Seed 3: the exit block (every thread terminates).
        need(f.exitBlock());

        // Fixpoint: branches controlling needed blocks are relevant,
        // and relevant-branch blocks are needed (Definition 1 rules
        // 2 and 3).
        while (!work.empty()) {
            BlockId b = work.back();
            work.pop_back();
            for (BlockId branch_block : cd.dependsOn(b)) {
                if (!relevant.test(branch_block)) {
                    relevant.set(branch_block);
                    need(branch_block);
                }
            }
        }
        // Relevant branch blocks seeded by rule 1 must be needed too.
        relevant.forEach([&](size_t b) {
            need(static_cast<BlockId>(b));
        });
        while (!work.empty()) {
            BlockId b = work.back();
            work.pop_back();
            for (BlockId branch_block : cd.dependsOn(b)) {
                if (!relevant.test(branch_block)) {
                    relevant.set(branch_block);
                    need(branch_block);
                }
            }
        }
    }
}

bool
RelevantSets::isRelevantPoint(int t, BlockId b,
                              const ControlDependence &cd) const
{
    for (BlockId branch_block : cd.dependsOn(b)) {
        if (!branches_[t].test(branch_block))
            return false;
    }
    return true;
}

CommPlan
defaultMtcgPlan(const Function &f, const Pdg &pdg,
                const ThreadPartition &partition,
                const ControlDependence &cd)
{
    CommPlan plan;

    // Register dependences: communicate right after the def. One
    // placement per (def, register, target thread) — an instruction
    // sourcing several dependences into one thread communicates once
    // (the optimization noted below Algorithm 1).
    std::map<std::tuple<InstrId, Reg, int>, bool> reg_done;
    // Memory dependences: one sync per (source, target thread); arcs
    // about disjoint locations share it for free at the same point.
    std::map<std::pair<InstrId, int>, bool> mem_done;

    for (const auto &arc : pdg.arcs()) {
        int ts = partition.threadOf(arc.src);
        int tt = partition.threadOf(arc.dst);
        if (ts == tt)
            continue;
        if (arc.kind == DepKind::Register) {
            auto key = std::make_tuple(arc.src, arc.reg, tt);
            if (reg_done.count(key))
                continue;
            reg_done[key] = true;
            ProgramPoint after_def{f.instr(arc.src).block,
                                   f.positionOf(arc.src) + 1};
            plan.placements.push_back({CommKind::RegisterData, arc.reg,
                                       ts, tt, {after_def}});
        } else if (arc.kind == DepKind::Memory) {
            auto key = std::make_pair(arc.src, tt);
            if (mem_done.count(key))
                continue;
            mem_done[key] = true;
            ProgramPoint after_src{f.instr(arc.src).block,
                                   f.positionOf(arc.src) + 1};
            plan.placements.push_back({CommKind::MemorySync, kNoReg, ts,
                                       tt, {after_src}});
        }
        // Control arcs carry no data; they are realized through the
        // relevant-branch sets and the operand placements below.
    }

    // Branch-operand communication: every branch relevant to a thread
    // that does not own it has its register operand produced by the
    // owning thread right before the branch (Algorithm 1 lines 17-19).
    RelevantSets relevant(f, cd, partition, plan);
    for (int t = 0; t < partition.num_threads; ++t) {
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            if (!relevant.isRelevantBranch(t, b))
                continue;
            InstrId branch = f.block(b).terminator();
            if (!f.instr(branch).isBranch())
                continue; // relevant "branch block" ending in Jmp/Ret
            int owner = partition.threadOf(branch);
            if (owner == t)
                continue;
            ProgramPoint before{b, f.positionOf(branch)};
            plan.placements.push_back({CommKind::RegisterData,
                                       f.instr(branch).src1, owner, t,
                                       {before}});
        }
    }
    return plan;
}

PlacementProvenance
defaultPlacementProvenance(const CommPlan &plan,
                           const EdgeProfile &profile)
{
    PlacementProvenance prov;
    prov.source = "mtcg-default";
    for (size_t i = 0; i < plan.placements.size(); ++i) {
        const CommPlacement &pl = plan.placements[i];
        PlacementDecision d;
        d.index = static_cast<int>(i);
        d.is_mem = pl.kind == CommKind::MemorySync;
        d.reg = pl.reg;
        d.src_thread = pl.src_thread;
        d.dst_thread = pl.dst_thread;
        d.rule = "mtcg-default";
        for (const auto &pt : pl.points)
            d.points.push_back(
                {pt.block, pt.pos,
                 static_cast<int64_t>(profile.pointWeight(pt)), 0});
        prov.placements.push_back(std::move(d));
    }
    return prov;
}

} // namespace gmt
