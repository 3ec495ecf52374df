#ifndef GMT_MTVERIFY_QUEUE_BALANCE_HPP
#define GMT_MTVERIFY_QUEUE_BALANCE_HPP

/**
 * @file
 * Theorem 2 of the MT verifier: queue balance.
 *
 * For every queue, the producing and consuming threads must agree on
 * the number and kind of tokens transferred along every execution
 * path of the original CFG. The check is a forward dataflow analysis
 * over the original CFG computing, per queue, the net in-flight token
 * count at each block boundary; any merge of unequal counts (a path
 * divergence) or a nonzero count at the exit is a balance violation
 * that would leave the synchronization array wedged or leaking. One
 * sparse worklist pass computes the counts of all queues at once,
 * holding per block only the queues with a nonzero count; a queue it
 * finds broken is walked again alone, so its findings name the block
 * the per-queue walk reaches first.
 *
 * This works on the emitted code alone — it does not trust the
 * communication plan — so it catches emission bugs the fidelity walk
 * could only find if the plan itself were right.
 */

#include <vector>

#include "mtverify/diag.hpp"
#include "mtverify/thread_map.hpp"
#include "runtime/mt_interpreter.hpp"

namespace gmt
{

/** Which threads touch a queue, as observed in the emitted code. */
struct QueueEndpoints
{
    int producer = -1; ///< unique producing thread, or -1 if none
    int consumer = -1; ///< unique consuming thread, or -1 if none
    bool conflict = false; ///< multiple producers/consumers or self-loop
};

/** Observed endpoints of every queue (size prog.num_queues). */
std::vector<QueueEndpoints> queueEndpoints(const MtProgram &prog);

/**
 * Run the balance checks: queue-id range, endpoint roles, per-path
 * token-count dataflow, and per-block token-kind mirroring.
 */
void checkQueueBalance(const Function &orig, const MtProgram &prog,
                       const std::vector<ThreadCodeMap> &maps,
                       std::vector<MtvDiag> &diags);

} // namespace gmt

#endif // GMT_MTVERIFY_QUEUE_BALANCE_HPP
