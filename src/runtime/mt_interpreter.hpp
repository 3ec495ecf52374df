#ifndef GMT_RUNTIME_MT_INTERPRETER_HPP
#define GMT_RUNTIME_MT_INTERPRETER_HPP

/**
 * @file
 * Functional multi-threaded interpreter: executes the thread functions
 * generated by MTCG against a shared MemoryImage and a SyncArray, with
 * a pluggable (and optionally randomized) instruction-interleaving
 * schedule. It is the correctness oracle: for any schedule, the
 * observable behaviour (memory + live-outs of thread 0) must equal the
 * single-threaded run.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "runtime/memory_image.hpp"
#include "runtime/sync_array.hpp"

namespace gmt
{

/** A generated multi-threaded program (output of MTCG). */
struct MtProgram
{
    /** Exactly one thread declares live-outs (it owns the Ret). */
    std::vector<Function> threads;

    /** Queues referenced by produce/consume instructions. */
    int num_queues = 0;

    /** Per-queue capacity (1 for GREMIO, 32 for DSWP in the paper). */
    int queue_capacity = 32;
};

/** How the interpreter interleaves threads. */
enum class SchedulePolicy {
    RoundRobin,  ///< one instruction per thread, cycling
    Random,      ///< uniformly random runnable thread each step
};

/**
 * Per-thread dynamic instruction counts. Jmp terminators are not
 * counted anywhere: block layout makes them fall-throughs in real
 * generated code, so they are structure, not computation.
 */
struct ThreadStats
{
    uint64_t computation = 0;  ///< copies of original instructions
    uint64_t duplicated_branches = 0;  ///< control-dep branch replicas
    uint64_t produces = 0;
    uint64_t consumes = 0;
    uint64_t produce_syncs = 0;
    uint64_t consume_syncs = 0;

    uint64_t
    communication() const
    {
        return produces + consumes + produce_syncs + consume_syncs;
    }

    uint64_t
    total() const
    {
        return computation + duplicated_branches + communication();
    }
};

/** Result of a multi-threaded run. */
struct MtRunResult
{
    /** Live-out values observed at the live-out-owning thread's Ret. */
    std::vector<int64_t> live_outs;

    std::vector<ThreadStats> stats;

    /** Set if execution wedged (a bug in the generated code). */
    bool deadlock = false;

    /** All queues empty at the end (paper's deadlock-freedom). */
    bool queues_drained = false;

    uint64_t totalDynamicInstrs() const;
    uint64_t totalCommunication() const;
};

/**
 * Execute @p prog to completion.
 *
 * @param prog     MT program (threads share @p mem and the queues).
 * @param args     one value per thread-0 param; the same initial
 *                 register file is broadcast to every thread (live-ins
 *                 are passed at thread spawn, as in DSWP).
 * @param mem      shared data memory.
 * @param policy   interleaving policy.
 * @param seed     RNG seed for SchedulePolicy::Random.
 */
MtRunResult interpretMt(const MtProgram &prog,
                        const std::vector<int64_t> &args, MemoryImage &mem,
                        SchedulePolicy policy = SchedulePolicy::RoundRobin,
                        uint64_t seed = 0,
                        uint64_t max_steps = 500'000'000);

/** Dynamic instruction counts of one MT run, summed over threads. */
struct MtRunCounts
{
    uint64_t computation = 0;
    uint64_t duplicated_branches = 0;
    uint64_t reg_comm = 0; ///< produce + consume
    uint64_t mem_sync = 0; ///< produce.sync + consume.sync
};

/**
 * The equivalence oracle on one input: run @p prog on @p args and
 * @p mem (round-robin), then check that it neither deadlocked nor left
 * a queue non-empty and that its live-outs and final memory equal the
 * single-threaded run's @p st_live_outs and @p st_final_mem. Dies via
 * fatal(), naming @p what, on any failure; returns the summed counts.
 */
MtRunCounts runCheckedMt(const MtProgram &prog,
                         const std::vector<int64_t> &args,
                         MemoryImage mem,
                         const std::vector<int64_t> &st_live_outs,
                         const MemoryImage &st_final_mem,
                         const std::string &what);

} // namespace gmt

#endif // GMT_RUNTIME_MT_INTERPRETER_HPP
