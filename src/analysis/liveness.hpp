#ifndef GMT_ANALYSIS_LIVENESS_HPP
#define GMT_ANALYSIS_LIVENESS_HPP

/**
 * @file
 * Standard backward liveness over virtual registers. COCO's
 * thread-aware liveness (live *with respect to a target thread*) is a
 * filtered instance of the same framework — see coco/thread_liveness.
 */

#include <vector>

#include "ir/function.hpp"
#include "support/bit_vector.hpp"

namespace gmt
{

/**
 * Block-level liveness with on-demand per-point refinement.
 *
 * An optional instruction filter restricts which instructions' uses
 * count (thread-aware liveness passes "uses in thread T / in relevant
 * branches of T"); defs always kill regardless of thread.
 *
 * The block-level fixpoint runs on per-block use/def summaries built
 * in one pass, so the filter is called once per instruction.
 */
class Liveness
{
  public:
    /** Instruction-use filter: return true if @p i's uses count. */
    using UseFilter = bool (*)(const Function &, InstrId, const void *);

    /** Unfiltered liveness. */
    explicit Liveness(const Function &f);

    /** Filtered liveness: @p filter decides which uses count. */
    Liveness(const Function &f, UseFilter filter, const void *ctx);

    const BitVector &liveIn(BlockId b) const { return live_in_[b]; }
    const BitVector &liveOut(BlockId b) const { return live_out_[b]; }

    /** Registers live immediately before position @p pos of @p b. */
    BitVector liveAt(const ProgramPoint &p) const;

    bool isLiveAt(Reg r, const ProgramPoint &p) const;

  private:
    void compute();

    const Function &func_;
    UseFilter filter_ = nullptr;
    const void *filter_ctx_ = nullptr;
    std::vector<BitVector> live_in_, live_out_;
};

} // namespace gmt

#endif // GMT_ANALYSIS_LIVENESS_HPP
