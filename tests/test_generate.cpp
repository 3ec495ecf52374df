// Property tests for the random workload generator and the repro
// reducer behind gmt-fuzz: every seed yields a valid, terminating,
// round-trippable cell, and the reducer shrinks while preserving a
// failure predicate.

#include <gtest/gtest.h>

#include "driver/pipeline.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "runtime/interpreter.hpp"
#include "workloads/generate.hpp"
#include "workloads/serialize.hpp"

namespace gmt
{
namespace
{

constexpr uint64_t kSeeds = 40;

TEST(Generate, EverySeedVerifiesAndTerminates)
{
    for (uint64_t seed = 0; seed < kSeeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Workload w = generateWorkload(seed);
        EXPECT_EQ(w.name, "gen" + std::to_string(seed));
        EXPECT_TRUE(verifyFunction(w.func).empty());
        MemoryImage mem;
        mem.alloc(w.mem_cells);
        w.fill(mem, true);
        auto run = interpret(w.func, w.ref_args, mem, 50'000'000);
        EXPECT_FALSE(run.live_outs.empty());
    }
}

TEST(Generate, DeterministicPerSeed)
{
    for (uint64_t seed : {0ull, 7ull, 123456789ull}) {
        Workload a = generateWorkload(seed);
        Workload b = generateWorkload(seed);
        EXPECT_EQ(workloadToText(a), workloadToText(b));
        EXPECT_EQ(a.digest, b.digest);
    }
    EXPECT_NE(workloadToText(generateWorkload(1)),
              workloadToText(generateWorkload(2)));
}

TEST(Generate, CellsRoundTripBitIdentically)
{
    for (uint64_t seed = 0; seed < 10; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Workload w = generateWorkload(seed);
        std::string text = workloadToText(w);
        Workload loaded = workloadFromText(text, "<test>");
        EXPECT_EQ(workloadToText(loaded), text);
        EXPECT_EQ(loaded.digest, w.digest);
        // Generated functions are canonicalized, so ids round-trip.
        EXPECT_EQ(functionToString(loaded.func),
                  functionToString(w.func));
    }
}

TEST(Generate, PipelineRunsCleanOnSampleSeeds)
{
    // A micro fuzz-smoke inline in the test suite: a few seeds through
    // the full matrix with the pipeline's own oracles armed.
    for (uint64_t seed : {3ull, 11ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Workload w = generateWorkload(seed);
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                PipelineOptions opts;
                opts.scheduler = sched;
                opts.use_coco = coco;
                opts.simulate = false;
                EXPECT_NO_THROW(runPipeline(w, opts))
                    << schedulerName(sched) << (coco ? "+COCO" : "");
            }
        }
    }
}

TEST(Generate, AddressesStayInBoundsAtLargerSettings)
{
    // These seeds drew INT64_MIN into an address computation. When the
    // generator took abs before rem, that wrapped and produced
    // address -128, so the profile run faulted.
    GenOptions gen;
    gen.max_depth = 4;
    gen.max_stmts = 10;
    gen.pool_regs = 12;
    for (uint64_t seed : {7ull, 57ull}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Workload w = generateWorkload(seed, gen);
        PipelineOptions opts;
        opts.scheduler = Scheduler::Gremio;
        opts.simulate = false;
        EXPECT_NO_THROW(runPipeline(w, opts));
    }
}

TEST(Reduce, ShrinksWhilePreservingPredicate)
{
    // Artificial "failure": the cell still contains a store to alias
    // class 1. The reducer must keep at least one while deleting the
    // bulk of the program.
    auto has_store = [](const Workload &c) {
        for (InstrId i = 0; i < c.func.numInstrs(); ++i) {
            const Instr &in = c.func.instr(i);
            if (in.op == Opcode::Store && in.alias == 1)
                return true;
        }
        return false;
    };

    // Not every seed rolls an alias-1 store; take the first that does.
    Workload w = generateWorkload(0);
    for (uint64_t seed = 0; !has_store(w); ++seed) {
        ASSERT_LT(seed, 32u) << "no seed with an alias-1 store";
        w = generateWorkload(seed);
    }
    int before = w.func.numInstrs();

    Workload small = reduceWorkload(w, has_store);
    EXPECT_TRUE(has_store(small));
    EXPECT_TRUE(verifyFunction(small.func).empty());
    EXPECT_LT(small.func.numInstrs(), before / 2);

    // The reduced cell is canonical: its dump reloads bit-identically.
    std::string text = workloadToText(small);
    EXPECT_EQ(workloadToText(workloadFromText(text, "<t>")), text);
}

TEST(Reduce, ReturnsOriginalWhenPredicateNeverHeld)
{
    Workload w = generateWorkload(9);
    auto never = [](const Workload &) { return false; };
    Workload same = reduceWorkload(w, never);
    EXPECT_EQ(functionToString(same.func), functionToString(w.func));
}

} // namespace
} // namespace gmt
