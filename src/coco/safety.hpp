#ifndef GMT_COCO_SAFETY_HPP
#define GMT_COCO_SAFETY_HPP

/**
 * @file
 * COCO's thread-aware safety analysis (paper equations 1 and 2).
 *
 * A register r is *safe* to communicate from thread T_s at a program
 * point iff T_s is guaranteed to hold the latest value of r there
 * (Property 3): right after T_s defines or uses r, and until any
 * thread redefines it. Communicating at an unsafe point would
 * overwrite the target's copy with a stale value.
 *
 *   SAFE_out(n) = DEF_Ts(n) u USE_Ts(n) u (SAFE_in(n) - DEF(n))
 *   SAFE_in(n)  = intersection over predecessors of SAFE_out
 *
 * The analysis is forward/must. At the region entry every register is
 * safe for every thread: live-ins are broadcast at thread spawn, so
 * all threads start with identical register files.
 *
 * Equation 1 composes over a block into SAFE_out = GEN u (SAFE_in -
 * KILL). The per-block GEN/KILL summaries are built in one pass over
 * the instructions; the fixpoint then iterates with word operations
 * only. The greatest fixpoint is unique, so the result equals the
 * per-instruction iteration's.
 */

#include <vector>

#include "ir/function.hpp"
#include "partition/partition.hpp"
#include "support/bit_vector.hpp"

namespace gmt
{

/** Per-point safe-register sets for one source thread. */
class SafetyAnalysis
{
  public:
    SafetyAnalysis(const Function &f, const ThreadPartition &partition,
                   int src_thread);

    /** Registers safe to communicate from the thread at block entry. */
    const BitVector &safeIn(BlockId b) const { return safe_in_[b]; }

    /** Registers safe to communicate from the thread at block exit. */
    const BitVector &safeOut(BlockId b) const { return safe_out_[b]; }

    /** Safe set at an arbitrary point (forward refinement). */
    BitVector safeAt(const ProgramPoint &p) const;

    bool isSafeAt(Reg r, const ProgramPoint &p) const;

  private:
    /** Apply equation (1) for one instruction. */
    void transfer(BitVector &safe, InstrId i) const;

    const Function &func_;
    const ThreadPartition &partition_;
    int src_thread_;
    std::vector<BitVector> safe_in_, safe_out_;
};

/** One SafetyAnalysis per thread of @p partition, indexed by thread. */
std::vector<SafetyAnalysis> safetyPerThread(const Function &f,
                                            const ThreadPartition &partition);

} // namespace gmt

#endif // GMT_COCO_SAFETY_HPP
