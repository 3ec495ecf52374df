#include "coco/safety.hpp"

#include "support/error.hpp"

namespace gmt
{

SafetyAnalysis::SafetyAnalysis(const Function &f,
                               const ThreadPartition &partition,
                               int src_thread)
    : func_(f), partition_(partition), src_thread_(src_thread)
{
    const int nb = f.numBlocks();
    const int nr = f.numRegs();

    // Equation (1) composed over each block: SAFE_out = gen u (SAFE_in
    // - kill). A redefinition moves its register from gen to kill; the
    // source thread's own defs and uses then put it back into gen.
    std::vector<BitVector> gen(nb, BitVector(nr)), kill(nb, BitVector(nr));
    for (BlockId b = 0; b < nb; ++b) {
        for (InstrId i : f.block(b).instrs()) {
            Reg def = f.defOf(i);
            if (def != kNoReg) {
                gen[b].reset(def);
                kill[b].set(def);
            }
            if (partition.threadOf(i) == src_thread) {
                if (def != kNoReg)
                    gen[b].set(def);
                for (Reg use : f.usesOf(i))
                    gen[b].set(use);
            }
        }
    }

    // Optimistic (top) initialization; the entry boundary is "all
    // safe" because live-ins are broadcast at spawn. Iterating the
    // intersection to the greatest fixpoint yields the precise
    // merge-over-paths solution of this distributive framework.
    BitVector top(nr);
    top.setAll();
    safe_in_.assign(nb, top);
    safe_out_.assign(nb, BitVector(nr));
    for (BlockId b = 0; b < nb; ++b)
        safe_out_[b].assignTransfer(top, gen[b], kill[b]);

    BitVector in(nr);
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = 0; b < nb; ++b) {
            if (b == f.entry()) {
                in.setAll();
            } else {
                const auto &preds = f.block(b).preds();
                // A block with no predecessors other than entry
                // cannot occur (verifier guarantees reachability).
                GMT_ASSERT(!preds.empty(), "block without predecessors");
                in = safe_out_[preds[0]];
                for (size_t k = 1; k < preds.size(); ++k)
                    in.intersectWith(safe_out_[preds[k]]);
            }
            if (!(in == safe_in_[b])) {
                safe_in_[b] = in;
                safe_out_[b].assignTransfer(in, gen[b], kill[b]);
                changed = true;
            }
        }
    }
}

std::vector<SafetyAnalysis>
safetyPerThread(const Function &f, const ThreadPartition &partition)
{
    std::vector<SafetyAnalysis> safety;
    safety.reserve(partition.num_threads);
    for (int t = 0; t < partition.num_threads; ++t)
        safety.emplace_back(f, partition, t);
    return safety;
}

void
SafetyAnalysis::transfer(BitVector &safe, InstrId i) const
{
    const Function &f = func_;
    Reg def = f.defOf(i);
    bool mine = (partition_.threadOf(i) == src_thread_);

    // SAFE - DEF(n): any thread's redefinition invalidates.
    if (def != kNoReg)
        safe.reset(def);
    // u DEF_Ts u USE_Ts: the source thread's own defs and uses
    // guarantee it holds the latest value.
    if (mine) {
        if (def != kNoReg)
            safe.set(def);
        for (Reg use : f.usesOf(i))
            safe.set(use);
    }
}

BitVector
SafetyAnalysis::safeAt(const ProgramPoint &p) const
{
    const BasicBlock &bb = func_.block(p.block);
    GMT_ASSERT(p.pos >= 0 && p.pos <= static_cast<int>(bb.size()));
    BitVector safe = safe_in_[p.block];
    for (int i = 0; i < p.pos; ++i)
        transfer(safe, bb.instrs()[i]);
    return safe;
}

bool
SafetyAnalysis::isSafeAt(Reg r, const ProgramPoint &p) const
{
    return safeAt(p).test(r);
}

} // namespace gmt
