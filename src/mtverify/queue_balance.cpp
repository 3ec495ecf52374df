#include "mtverify/queue_balance.hpp"

#include <deque>
#include <limits>
#include <sstream>

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

    // --- per-queue token-count dataflow on the original CFG ---------
    constexpr int kUnvisited = std::numeric_limits<int>::min();
    constexpr int kTop = std::numeric_limits<int>::min() + 1;

    auto by_queue = commOpsByQueue(orig, prog, maps);
    for (QueueId q = 0; q < prog.num_queues; ++q) {
        const QueueEndpoints &e = ends[q];
        if (e.conflict)
            continue; // roles are already broken; counts are moot
        if (e.producer == -1 && e.consumer == -1)
            continue; // unused queue (multiplexing slack)

        // Net token delta and per-block sequences. A missing endpoint
        // thread contributes empty sequences, which the dataflow then
        // reports as an imbalance at the exit.
        auto sequences = [&](int t, bool produces) {
            std::vector<std::vector<InstrId>> seq(orig.numBlocks());
            if (t == -1)
                return seq;
            for (const CommOp &op : by_queue[t][q]) {
                Opcode o = prog.threads[t].instr(op.instr).op;
                if (produces ? isProduce(o) : isConsume(o))
                    seq[op.orig_block].push_back(op.instr);
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
                         .message =
                             "in-flight token count diverges between "
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

        // --- token-kind mirroring per block -------------------------
        // Only where the in-flight count is known to be zero at block
        // entry and the block's counts agree: there the k-th produce
        // feeds exactly the k-th consume, so data/sync kinds must
        // match pairwise. (Guarding on zero avoids cascading noise
        // when an imbalance already offset the pairing.)
        if (e.producer == -1 || e.consumer == -1)
            continue;
        for (BlockId b = 0; b < orig.numBlocks(); ++b) {
            if (in[b] != 0 || prod_seq[b].size() != cons_seq[b].size())
                continue;
            for (size_t k = 0; k < prod_seq[b].size(); ++k) {
                Opcode po =
                    prog.threads[e.producer].instr(prod_seq[b][k]).op;
                Opcode co =
                    prog.threads[e.consumer].instr(cons_seq[b][k]).op;
                if (isSync(po) == isSync(co))
                    continue;
                std::ostringstream msg;
                msg << "token " << k << " produced as "
                    << opcodeName(po) << " but consumed as "
                    << opcodeName(co);
                diags.push_back({.code = MtvCode::TokenKindMismatch,
                                 .block = b,
                                 .pos = static_cast<int>(k),
                                 .queue = q,
                                 .message = msg.str()});
            }
        }
    }
}

} // namespace gmt
