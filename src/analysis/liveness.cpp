#include "analysis/liveness.hpp"

#include "support/error.hpp"

namespace gmt
{

Liveness::Liveness(const Function &f) : func_(f)
{
    compute();
}

Liveness::Liveness(const Function &f, UseFilter filter, const void *ctx)
    : func_(f), filter_(filter), filter_ctx_(ctx)
{
    compute();
}

void
Liveness::compute()
{
    const Function &f = func_;
    const int nb = f.numBlocks();
    const int nr = f.numRegs();

    // Per-block summaries, composed backward over the instructions:
    // LIVE_in = use u (LIVE_out - def), where use holds the counted
    // uses not preceded by a def in the block.
    std::vector<BitVector> use(nb, BitVector(nr)), def(nb, BitVector(nr));
    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        for (auto it = instrs.rbegin(); it != instrs.rend(); ++it) {
            Reg d = f.defOf(*it);
            if (d != kNoReg) {
                use[b].reset(d);
                def[b].set(d);
            }
            if (!filter_ || filter_(f, *it, filter_ctx_)) {
                for (Reg u : f.usesOf(*it))
                    use[b].set(u);
            }
        }
    }

    // Iterate to the least fixpoint (backward, round-robin) with word
    // operations only; the fixpoint is unique, so the sweep order
    // does not change the result.
    live_in_.assign(nb, BitVector(nr));
    live_out_.assign(nb, BitVector(nr));
    BitVector out(nr);
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = nb - 1; b >= 0; --b) {
            out.clearAll();
            for (BlockId s : f.block(b).succs())
                out.unionWith(live_in_[s]);
            if (!(out == live_out_[b])) {
                live_out_[b] = out;
                changed = true;
            }
            changed |= live_in_[b].assignTransfer(out, use[b], def[b]);
        }
    }
}

BitVector
Liveness::liveAt(const ProgramPoint &p) const
{
    const Function &f = func_;
    const BasicBlock &bb = f.block(p.block);
    GMT_ASSERT(p.pos >= 0 && p.pos <= static_cast<int>(bb.size()));
    BitVector live = live_out_[p.block];
    const auto &instrs = bb.instrs();
    for (int i = static_cast<int>(instrs.size()) - 1; i >= p.pos; --i) {
        InstrId id = instrs[i];
        Reg def = f.defOf(id);
        if (def != kNoReg)
            live.reset(def);
        if (!filter_ || filter_(f, id, filter_ctx_)) {
            for (Reg use : f.usesOf(id))
                live.set(use);
        }
    }
    return live;
}

bool
Liveness::isLiveAt(Reg r, const ProgramPoint &p) const
{
    return liveAt(p).test(r);
}

} // namespace gmt
