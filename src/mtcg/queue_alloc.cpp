#include "mtcg/queue_alloc.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "support/error.hpp"

namespace gmt
{

QueueAllocation
allocateQueues(const CommPlan &plan, int max_queues,
               QueueProvenance *prov)
{
    QueueAllocation alloc;
    alloc.queue_of.assign(plan.placements.size(), -1);
    if (prov)
        prov->max_queues = max_queues;

    // Group placement indices by ordered thread pair.
    std::map<std::pair<int, int>, std::vector<int>> groups;
    for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
        const CommPlacement &pl = plan.placements[pi];
        groups[{pl.src_thread, pl.dst_thread}].push_back(
            static_cast<int>(pi));
    }
    if (groups.empty())
        return alloc;

    int num_pairs = static_cast<int>(groups.size());
    if (max_queues < num_pairs)
        fatal("queue allocation needs at least ", num_pairs,
              " queues (one per communicating thread pair), got ",
              max_queues);

    // Proportional shares, at least one queue per pair.
    int total_placements = static_cast<int>(plan.placements.size());
    int next_queue = 0;
    for (auto &[pair, members] : groups) {
        int share = static_cast<int>(
            static_cast<long long>(members.size()) *
            (max_queues - num_pairs) / std::max(total_placements, 1));
        int queues = 1 + share;
        queues = std::min<int>(queues,
                               static_cast<int>(members.size()));
        // Round-robin members over this pair's queue range; both
        // threads derive the same mapping from the plan order, so
        // produce/consume streams stay aligned.
        for (size_t k = 0; k < members.size(); ++k) {
            alloc.queue_of[members[k]] =
                next_queue + static_cast<int>(k % queues);
        }
        if (prov) {
            for (int q = 0; q < queues; ++q) {
                QueueDecision d;
                d.queue = next_queue + q;
                d.src_thread = pair.first;
                d.dst_thread = pair.second;
                d.rule = queues == static_cast<int>(members.size())
                             ? "identity"
                             : "pair-share";
                d.pair_placements = static_cast<int>(members.size());
                d.pair_queues = queues;
                for (size_t k = 0; k < members.size(); ++k)
                    if (static_cast<int>(k % queues) == q)
                        d.placements.push_back(members[k]);
                prov->queues.push_back(std::move(d));
            }
        }
        next_queue += queues;
    }
    alloc.num_queues = next_queue;
    if (prov)
        prov->num_queues = alloc.num_queues;
    GMT_ASSERT(alloc.num_queues <= max_queues);
    return alloc;
}

QueueAllocation
identityQueues(const CommPlan &plan, QueueProvenance *prov)
{
    QueueAllocation alloc;
    alloc.num_queues = plan.numQueues();
    alloc.queue_of.resize(plan.placements.size());
    for (size_t pi = 0; pi < alloc.queue_of.size(); ++pi)
        alloc.queue_of[pi] = static_cast<int>(pi);
    if (!prov)
        return alloc;
    prov->max_queues = 0;
    prov->num_queues = alloc.num_queues;
    for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
        const CommPlacement &pl = plan.placements[pi];
        QueueDecision d;
        d.queue = static_cast<int>(pi);
        d.src_thread = pl.src_thread;
        d.dst_thread = pl.dst_thread;
        d.rule = "identity";
        d.pair_placements = 1;
        d.pair_queues = 1;
        d.placements.push_back(static_cast<int>(pi));
        prov->queues.push_back(std::move(d));
    }
    return alloc;
}

void
remapQueues(MtProgram &prog, const QueueAllocation &alloc)
{
    for (Function &tf : prog.threads) {
        for (InstrId i = 0; i < tf.numInstrs(); ++i) {
            Instr &in = tf.instr(i);
            if (isCommunication(in.op))
                in.queue = alloc.queue_of[in.queue];
        }
    }
    prog.num_queues = alloc.num_queues;
}

} // namespace gmt
