#ifndef GMT_MTCG_QUEUE_ALLOC_HPP
#define GMT_MTCG_QUEUE_ALLOC_HPP

/**
 * @file
 * Queue allocation (paper footnote 1: "a separate queue is used just
 * for simplicity. Later, a queue-allocation algorithm can reduce the
 * number of queues necessary").
 *
 * The synchronization array has 256 architected queues; a plan with
 * more placements must multiplex. Sharing is safe within an ordered
 * thread pair: both threads visit the plan's points in the same order
 * along any execution path, so tokens of different placements
 * interleave identically on both sides and FIFO order delivers each
 * consume its matching produce. Blocking on a shared full queue is
 * backpressure, not deadlock: if the producer is blocked at point p,
 * it has already produced everything before p, so the consumer can
 * always advance to the oldest outstanding consume.
 *
 * The allocator distributes each thread pair's placements round-robin
 * over the pair's share of the architected queues, which preserves
 * decoupling better than funneling a pair through one queue.
 */

#include <vector>

#include "mtcg/comm_plan.hpp"
#include "obs/provenance.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

/** Result of queue allocation. */
struct QueueAllocation
{
    /** queue_of[placement index] = assigned queue id. */
    std::vector<int> queue_of;

    /** Number of distinct queues used (<= the requested maximum). */
    int num_queues = 0;
};

/**
 * Assign queues to @p plan's placements using at most @p max_queues
 * queues. Requires max_queues >= number of ordered thread pairs with
 * at least one placement (each pair needs one private queue to keep
 * the safety argument pairwise).
 *
 * When @p prov is non-null, records one QueueDecision per allocated
 * queue (pair share, rule, multiplexed placement indices).
 */
QueueAllocation allocateQueues(const CommPlan &plan, int max_queues,
                               QueueProvenance *prov = nullptr);

/**
 * The paper's allocation: placement i owns queue i. This is the
 * numbering runMtcg() emits. When @p prov is non-null, records one
 * "identity" QueueDecision per placement (max_queues 0).
 */
QueueAllocation identityQueues(const CommPlan &plan,
                               QueueProvenance *prov = nullptr);

/**
 * Multiplex @p prog, as runMtcg() emitted it (queue = placement index),
 * onto @p alloc: every communication instruction's queue id goes
 * through alloc.queue_of, and prog.num_queues becomes alloc.num_queues.
 */
void remapQueues(MtProgram &prog, const QueueAllocation &alloc);

} // namespace gmt

#endif // GMT_MTCG_QUEUE_ALLOC_HPP
