#include "mtverify/queue_balance.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

namespace gmt
{

namespace
{

bool
isProduce(Opcode op)
{
    return op == Opcode::Produce || op == Opcode::ProduceSync;
}

bool
isConsume(Opcode op)
{
    return op == Opcode::Consume || op == Opcode::ConsumeSync;
}

bool
isSync(Opcode op)
{
    return op == Opcode::ProduceSync || op == Opcode::ConsumeSync;
}

/** One comm op on a queue: the original block whose image holds it,
 *  and the op itself in its thread's emitted code. */
struct CommOp
{
    BlockId orig_block = kNoBlock;
    InstrId instr = kNoInstr;
};

/**
 * Every thread's in-range comm ops bucketed by queue, in one pass:
 * by_queue[t][q] lists thread t's ops on q in original-block order,
 * emitted order within a block.
 */
std::vector<std::vector<std::vector<CommOp>>>
commOpsByQueue(const Function &orig, const MtProgram &prog,
               const std::vector<ThreadCodeMap> &maps)
{
    int nt = static_cast<int>(prog.threads.size());
    std::vector<std::vector<std::vector<CommOp>>> by_queue(
        nt, std::vector<std::vector<CommOp>>(prog.num_queues));
    for (int t = 0; t < nt; ++t) {
        const Function &emitted = prog.threads[t];
        const std::vector<BlockId> &image = maps[t].emitted_block;
        for (BlockId ob = 0; ob < orig.numBlocks(); ++ob) {
            BlockId eb = ob < static_cast<BlockId>(image.size())
                             ? image[ob]
                             : kNoBlock;
            if (eb == kNoBlock)
                continue;
            for (InstrId ei : emitted.block(eb).instrs()) {
                const Instr &in = emitted.instr(ei);
                if (!in.isCommunication())
                    continue;
                if (in.queue < 0 || in.queue >= prog.num_queues)
                    continue; // out of range; BadQueueId reports it
                by_queue[t][in.queue].push_back({ob, ei});
            }
        }
    }
    return by_queue;
}

/** Per-block nonzero token counts, sorted by queue; kTop is ⊤. */
using Counts = std::vector<std::pair<QueueId, int>>;

constexpr int kUnvisited = std::numeric_limits<int>::min();
constexpr int kTop = std::numeric_limits<int>::min() + 1;

/** The count of @p q in @p c (0 when absent). */
int
countOf(const Counts &c, QueueId q)
{
    auto it = std::lower_bound(
        c.begin(), c.end(), q,
        [](const auto &e, QueueId key) { return e.first < key; });
    return it != c.end() && it->first == q ? it->second : 0;
}

/** out = in + delta, pointwise; ⊤ absorbs, zeros drop out. */
void
addCounts(const Counts &in, const Counts &delta, Counts &out)
{
    out.clear();
    size_t i = 0, d = 0;
    while (i < in.size() || d < delta.size()) {
        if (d == delta.size() ||
            (i < in.size() && in[i].first < delta[d].first)) {
            out.push_back(in[i++]);
        } else if (i == in.size() || delta[d].first < in[i].first) {
            out.push_back(delta[d++]);
        } else {
            int c = in[i].second == kTop ? kTop
                                         : in[i].second + delta[d].second;
            if (c != 0)
                out.push_back({in[i].first, c});
            ++i;
            ++d;
        }
    }
}

/** merged = cur ⊔ out, pointwise over the flat lattice (unequal
 *  counts meet at ⊤). @return whether merged differs from cur. */
bool
joinCounts(const Counts &cur, const Counts &out, Counts &merged)
{
    if (cur == out)
        return false;
    merged.clear();
    size_t i = 0, o = 0;
    while (i < cur.size() || o < out.size()) {
        if (o == out.size() ||
            (i < cur.size() && cur[i].first < out[o].first)) {
            merged.push_back({cur[i++].first, kTop});
        } else if (i == cur.size() || out[o].first < cur[i].first) {
            merged.push_back({out[o++].first, kTop});
        } else {
            merged.push_back({cur[i].first, cur[i].second == out[o].second
                                                ? cur[i].second
                                                : kTop});
            ++i;
            ++o;
        }
    }
    return merged != cur;
}

/**
 * Token-kind mirroring in block @p b, where queue @p q is known to
 * hold no token at entry: if the counts agree, the k-th produce feeds
 * exactly the k-th consume, so data/sync kinds must match pairwise.
 * (Guarding on a zero entry count avoids cascading noise when an
 * imbalance already offset the pairing.)
 */
void
checkTokenKinds(const MtProgram &prog, const QueueEndpoints &e,
                std::span<const CommOp> prods,
                std::span<const CommOp> conss, BlockId b, QueueId q,
                std::vector<MtvDiag> &diags)
{
    if (prods.size() != conss.size())
        return;
    for (size_t k = 0; k < prods.size(); ++k) {
        Opcode po = prog.threads[e.producer].instr(prods[k].instr).op;
        Opcode co = prog.threads[e.consumer].instr(conss[k].instr).op;
        if (isSync(po) == isSync(co))
            continue;
        std::ostringstream msg;
        msg << "token " << k << " produced as " << opcodeName(po)
            << " but consumed as " << opcodeName(co);
        diags.push_back({.code = MtvCode::TokenKindMismatch,
                         .block = b,
                         .pos = static_cast<int>(k),
                         .queue = q,
                         .message = msg.str()});
    }
}

/**
 * The whole-CFG token-count dataflow of one queue, with its
 * diagnostics: the first divergent merge in worklist order, a nonzero
 * count at the exit, and the token-kind mirroring where the entry
 * count is zero.
 */
void
checkOneQueue(const Function &orig, const MtProgram &prog,
              const QueueEndpoints &e,
              const std::vector<std::vector<std::vector<CommOp>>> &by_queue,
              QueueId q, std::vector<MtvDiag> &diags)
{
    // Net token delta and per-block sequences. A missing endpoint
    // thread contributes empty sequences, which the dataflow then
    // reports as an imbalance at the exit.
    auto sequences = [&](int t, bool produces) {
        std::vector<std::vector<CommOp>> seq(orig.numBlocks());
        if (t == -1)
            return seq;
        for (const CommOp &op : by_queue[t][q]) {
            Opcode o = prog.threads[t].instr(op.instr).op;
            if (produces ? isProduce(o) : isConsume(o))
                seq[op.orig_block].push_back(op);
        }
        return seq;
    };
    auto prod_seq = sequences(e.producer, true);
    auto cons_seq = sequences(e.consumer, false);
    std::vector<int> net(orig.numBlocks(), 0);
    for (BlockId b = 0; b < orig.numBlocks(); ++b)
        net[b] = static_cast<int>(prod_seq[b].size()) -
                 static_cast<int>(cons_seq[b].size());

    std::vector<int> in(orig.numBlocks(), kUnvisited);
    in[orig.entry()] = 0;
    std::deque<BlockId> work{orig.entry()};
    bool reported_merge = false;
    while (!work.empty()) {
        BlockId b = work.front();
        work.pop_front();
        int out = in[b] == kTop ? kTop : in[b] + net[b];
        for (BlockId s : orig.block(b).succs()) {
            int merged;
            if (in[s] == kUnvisited || in[s] == out)
                merged = out;
            else
                merged = kTop;
            if (merged == kTop && !reported_merge) {
                reported_merge = true;
                diags.push_back(
                    {.code = MtvCode::QueueImbalance,
                     .block = s,
                     .queue = q,
                     .message = "in-flight token count diverges between "
                                "paths reaching " +
                                orig.block(s).label()});
            }
            if (merged != in[s]) {
                in[s] = merged;
                work.push_back(s);
            }
        }
    }

    BlockId ex = orig.exitBlock();
    int at_exit = in[ex] == kTop || in[ex] == kUnvisited
                      ? in[ex]
                      : in[ex] + net[ex];
    if (at_exit != 0 && at_exit != kTop && at_exit != kUnvisited) {
        std::ostringstream msg;
        msg << "queue ends with " << at_exit
            << " unmatched token(s) at exit (produces vs consumes "
               "diverge)";
        diags.push_back({.code = MtvCode::QueueImbalance,
                         .block = ex,
                         .queue = q,
                         .message = msg.str()});
    }

    if (e.producer == -1 || e.consumer == -1)
        return;
    for (BlockId b = 0; b < orig.numBlocks(); ++b)
        if (in[b] == 0)
            checkTokenKinds(prog, e, prod_seq[b], cons_seq[b], b, q,
                            diags);
}

} // namespace

std::vector<QueueEndpoints>
queueEndpoints(const MtProgram &prog)
{
    std::vector<QueueEndpoints> ends(prog.num_queues);
    for (int t = 0; t < static_cast<int>(prog.threads.size()); ++t) {
        const Function &f = prog.threads[t];
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            for (InstrId i : f.block(b).instrs()) {
                const Instr &in = f.instr(i);
                if (!in.isCommunication())
                    continue;
                if (in.queue < 0 || in.queue >= prog.num_queues)
                    continue; // out of range; BadQueueId reports it
                QueueEndpoints &e = ends[in.queue];
                int &slot = isProduce(in.op) ? e.producer : e.consumer;
                if (slot != -1 && slot != t)
                    e.conflict = true;
                slot = t;
            }
        }
    }
    for (auto &e : ends)
        if (e.producer != -1 && e.producer == e.consumer)
            e.conflict = true;
    return ends;
}

void
checkQueueBalance(const Function &orig, const MtProgram &prog,
                  const std::vector<ThreadCodeMap> &maps,
                  std::vector<MtvDiag> &diags)
{
    // --- queue ids in range -----------------------------------------
    for (int t = 0; t < static_cast<int>(prog.threads.size()); ++t) {
        const Function &f = prog.threads[t];
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            for (InstrId i : f.block(b).instrs()) {
                const Instr &in = f.instr(i);
                if (!in.isCommunication())
                    continue;
                if (in.queue < 0 || in.queue >= prog.num_queues)
                    diags.push_back(
                        {.code = MtvCode::BadQueueId,
                         .thread = t,
                         .block = b,
                         .queue = in.queue,
                         .message =
                             "queue id outside [0, " +
                             std::to_string(prog.num_queues) + ")"});
            }
        }
    }

    // --- endpoint roles ---------------------------------------------
    std::vector<QueueEndpoints> ends = queueEndpoints(prog);
    for (QueueId q = 0; q < prog.num_queues; ++q) {
        if (!ends[q].conflict)
            continue;
        std::ostringstream msg;
        msg << "queue has conflicting endpoints (producer T"
            << ends[q].producer << ", consumer T" << ends[q].consumer
            << ")";
        diags.push_back({.code = MtvCode::QueueEndpointConflict,
                         .queue = q,
                         .message = msg.str()});
    }

    // --- token counts on the original CFG, all queues at once -------
    auto by_queue = commOpsByQueue(orig, prog, maps);
    auto checked = [&](QueueId q) {
        const QueueEndpoints &e = ends[q];
        // Broken roles make counts moot; an unused queue is
        // multiplexing slack.
        return !e.conflict && (e.producer != -1 || e.consumer != -1);
    };

    // Net token delta per (block, queue). Without conflicting
    // endpoints, the producer's ops on q are all produces and the
    // consumer's all consumes, and no other thread touches q.
    // Queue-major accumulation keeps each block's list sorted by queue.
    const int nb = orig.numBlocks();
    std::vector<Counts> delta(nb);
    for (QueueId q = 0; q < prog.num_queues; ++q) {
        if (!checked(q))
            continue;
        auto add = [&](int t, int d) {
            if (t == -1)
                return;
            for (const CommOp &op : by_queue[t][q]) {
                Counts &c = delta[op.orig_block];
                if (c.empty() || c.back().first != q)
                    c.push_back({q, 0});
                c.back().second += d;
            }
        };
        add(ends[q].producer, 1);
        add(ends[q].consumer, -1);
    }
    for (Counts &c : delta)
        std::erase_if(c, [](const auto &e) { return e.second == 0; });

    // One worklist pass to the fixpoint of every queue's dataflow.
    // The lattices are independent per queue, so this fixpoint is the
    // per-queue one; it does not depend on the visiting order.
    std::vector<Counts> in(nb);
    std::vector<char> reached(nb, 0), queued(nb, 0);
    std::deque<BlockId> work{orig.entry()};
    reached[orig.entry()] = queued[orig.entry()] = 1;
    Counts out, merged;
    while (!work.empty()) {
        BlockId b = work.front();
        work.pop_front();
        queued[b] = 0;
        addCounts(in[b], delta[b], out);
        for (BlockId s : orig.block(b).succs()) {
            if (!reached[s]) {
                reached[s] = 1;
                in[s] = out;
            } else if (joinCounts(in[s], out, merged)) {
                in[s].swap(merged);
            } else {
                continue;
            }
            if (!queued[s]) {
                queued[s] = 1;
                work.push_back(s);
            }
        }
    }

    // A queue is broken where the per-queue walk would report it: a
    // divergent merge anywhere, or a nonzero count at the exit.
    std::vector<char> broken(prog.num_queues, 0);
    for (BlockId b = 0; b < nb; ++b)
        for (const auto &[q, c] : in[b])
            if (c == kTop)
                broken[q] = 1;
    BlockId ex = orig.exitBlock();
    if (reached[ex]) {
        addCounts(in[ex], delta[ex], out);
        for (const auto &[q, c] : out)
            if (c != kTop)
                broken[q] = 1;
    }

    for (QueueId q = 0; q < prog.num_queues; ++q) {
        if (!checked(q))
            continue;
        const QueueEndpoints &e = ends[q];
        if (broken[q]) {
            // Only broken programs get here; the per-queue walk
            // finds the first divergent block in its own order.
            checkOneQueue(orig, prog, e, by_queue, q, diags);
            continue;
        }
        if (e.producer == -1 || e.consumer == -1)
            continue;
        // Token-kind mirroring, in the blocks that hold ops on q (all
        // produces in prods, all consumes in conss, as above).
        const std::vector<CommOp> &prods = by_queue[e.producer][q];
        const std::vector<CommOp> &conss = by_queue[e.consumer][q];
        size_t pi = 0, ci = 0;
        while (pi < prods.size() && ci < conss.size()) {
            BlockId b = std::min(prods[pi].orig_block,
                                 conss[ci].orig_block);
            // The ops of q in block b, from position k on.
            auto run = [&](const std::vector<CommOp> &ops, size_t &k) {
                size_t first = k;
                while (k < ops.size() && ops[k].orig_block == b)
                    ++k;
                return std::span<const CommOp>(ops).subspan(first,
                                                            k - first);
            };
            auto ps = run(prods, pi);
            auto cs = run(conss, ci);
            if (reached[b] && countOf(in[b], q) == 0)
                checkTokenKinds(prog, e, ps, cs, b, q, diags);
        }
    }
}

} // namespace gmt
