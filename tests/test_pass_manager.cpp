/**
 * @file
 * Pass-manager, artifact-cache, and experiment-runner tests: pass
 * ordering, cache hit/miss and key-level invalidation on option
 * change, parallel-vs-serial bit-identical determinism, and the
 * structured stats sink.
 */

#include <atomic>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "driver/experiment.hpp"
#include "driver/pass_manager.hpp"
#include "driver/stats.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

const std::vector<std::string> kStandardPasses = {
    "build-ir", "edge-split", "verify",      "profile",
    "pdg",      "partition",  "placement",   "mtcg",
    "queue-alloc", "verify-mt", "mt-run",    "sim",
    "autotune", "obs-profile", "obs-provenance"};

TEST(PassManager, StandardPipelineOrder)
{
    EXPECT_EQ(PassManager::standardPipeline().passNames(),
              kStandardPasses);
}

TEST(PassManager, RunRecordsOneStatsEntryPerPassInOrder)
{
    Workload w = makeAdpcmDec();
    PipelineOptions opts;
    opts.scheduler = Scheduler::Gremio;
    PipelineContext ctx(w, opts);
    PassManager::standardPipeline().run(ctx);

    ASSERT_EQ(ctx.pass_stats.size(), kStandardPasses.size());
    for (size_t i = 0; i < kStandardPasses.size(); ++i) {
        EXPECT_EQ(ctx.pass_stats[i].pass, kStandardPasses[i]);
        EXPECT_GE(ctx.pass_stats[i].wall_ms, 0.0);
        EXPECT_FALSE(ctx.pass_stats[i].cached) << kStandardPasses[i];
    }
    EXPECT_GT(ctx.result.computation, 0u);
    EXPECT_GT(ctx.result.st_cycles, 0u);
}

TEST(PassManager, CheckInvariantsPasses)
{
    Workload w = makeKs();
    PipelineOptions opts;
    opts.scheduler = Scheduler::Dswp;
    opts.use_coco = true;
    opts.check_invariants = true;
    opts.simulate = false;
    PipelineContext ctx(w, opts);
    PassManager::standardPipeline().run(ctx);
    EXPECT_GT(ctx.result.computation, 0u);
}

TEST(PassManager, MatchesRunPipelineWrapper)
{
    Workload w = makeAdpcmEnc();
    PipelineOptions opts;
    opts.scheduler = Scheduler::Dswp;
    opts.use_coco = true;

    PipelineContext ctx(w, opts);
    PassManager::standardPipeline().run(ctx);
    EXPECT_EQ(ctx.result, runPipeline(w, opts));
}

TEST(ArtifactCache, ComputeOnceAndCounters)
{
    ArtifactCache cache;
    std::atomic<int> computes{0};
    auto compute = [&]() -> std::shared_ptr<const int> {
        ++computes;
        return std::make_shared<int>(42);
    };

    bool hit = true;
    auto a = cache.getOrCompute<int>("k", compute, &hit);
    EXPECT_FALSE(hit);
    auto b = cache.getOrCompute<int>("k", compute, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(*a, 42);

    auto c = cache.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.entries, 1u);

    cache.clear();
    c = cache.counters();
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.entries, 0u);
}

TEST(ArtifactCache, ThrowingComputePoisonsEntry)
{
    ArtifactCache cache;
    auto boom = [&]() -> std::shared_ptr<const int> {
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(cache.getOrCompute<int>("k", boom), std::runtime_error);
    // The entry is poisoned: later lookups rethrow, never recompute.
    auto ok = [&]() -> std::shared_ptr<const int> {
        return std::make_shared<int>(1);
    };
    EXPECT_THROW(cache.getOrCompute<int>("k", ok), std::runtime_error);
}

/** COCO on/off cells share every stage up to (and including) the
 *  partition; placement and later are distinct. */
TEST(ArtifactCache, SharedPrefixHitsAcrossCocoToggle)
{
    Workload w = makeAdpcmDec();
    PipelineOptions base;
    base.scheduler = Scheduler::Dswp;
    base.use_coco = false;
    PipelineOptions opt = base;
    opt.use_coco = true;

    ArtifactCache cache;
    PipelineContext first(w, base);
    first.cache = &cache;
    PassManager::standardPipeline().run(first);

    PipelineContext second(w, opt);
    second.cache = &cache;
    PassManager::standardPipeline().run(second);

    auto statOf = [&](const PipelineContext &ctx, const char *pass)
        -> const PassStats & {
        for (const auto &ps : ctx.pass_stats)
            if (ps.pass == pass)
                return ps;
        ADD_FAILURE() << "no pass " << pass;
        return ctx.pass_stats.front();
    };

    for (const char *shared :
         {"edge-split", "profile", "pdg", "partition"}) {
        EXPECT_FALSE(statOf(first, shared).cached) << shared;
        EXPECT_TRUE(statOf(second, shared).cached) << shared;
    }
    // The COCO cell's placement (and everything after) is a miss.
    for (const char *distinct : {"placement", "mtcg", "mt-run"})
        EXPECT_FALSE(statOf(second, distinct).cached) << distinct;
    // ...but the single-threaded reference run/sim is shared too.
    EXPECT_GT(cache.counters().hits, 0u);
}

/** Option changes land on different keys — invalidation by
 *  construction, no explicit invalidate call anywhere. */
TEST(ArtifactCache, KeysChangeExactlyWithTheirOptionPrefix)
{
    Workload w = makeAdpcmDec();
    PipelineOptions a;
    a.scheduler = Scheduler::Dswp;
    a.use_coco = true;
    PipelineContext ca(w, a);

    // Same options -> same keys.
    {
        PipelineContext cb(w, a);
        EXPECT_EQ(partitionKey(ca), partitionKey(cb));
        EXPECT_EQ(planKey(ca), planKey(cb));
        EXPECT_EQ(queueAllocKey(ca), queueAllocKey(cb));
    }
    // Scheduler change invalidates partition and downstream, not the
    // schedule-independent stages.
    {
        PipelineOptions b = a;
        b.scheduler = Scheduler::Gremio;
        PipelineContext cb(w, b);
        EXPECT_EQ(irKey(ca), irKey(cb));
        EXPECT_EQ(profileKey(ca), profileKey(cb));
        EXPECT_EQ(pdgKey(ca), pdgKey(cb));
        EXPECT_NE(partitionKey(ca), partitionKey(cb));
        EXPECT_NE(planKey(ca), planKey(cb));
    }
    // Profile source feeds the partition too.
    {
        PipelineOptions b = a;
        b.static_profile = true;
        PipelineContext cb(w, b);
        EXPECT_NE(profileKey(ca), profileKey(cb));
        EXPECT_NE(partitionKey(ca), partitionKey(cb));
    }
    // A COCO knob invalidates the plan but nothing upstream.
    {
        PipelineOptions b = a;
        b.coco.multi_pair_memory = false;
        PipelineContext cb(w, b);
        EXPECT_EQ(partitionKey(ca), partitionKey(cb));
        EXPECT_NE(planKey(ca), planKey(cb));
        EXPECT_NE(mtcgKey(ca), mtcgKey(cb));
    }
    // Queue capacity only reaches MTCG and later.
    {
        PipelineOptions b = a;
        b.queue_capacity = 4;
        PipelineContext cb(w, b);
        EXPECT_EQ(planKey(ca), planKey(cb));
        EXPECT_NE(mtcgKey(ca), mtcgKey(cb));
    }
    // Queue budget only reaches the allocator.
    {
        PipelineOptions b = a;
        b.max_queues = 2;
        PipelineContext cb(w, b);
        EXPECT_EQ(mtcgKey(ca), mtcgKey(cb));
        EXPECT_NE(queueAllocKey(ca), queueAllocKey(cb));
    }
    // Recording provenance keys the partition and everything below
    // it apart (those artifacts carry the decision records); with it
    // off, every key is the plain one.
    {
        PipelineOptions b = a;
        b.record_provenance = true;
        PipelineContext cb(w, b);
        EXPECT_EQ(pdgKey(ca), pdgKey(cb));
        EXPECT_NE(partitionKey(ca), partitionKey(cb));
        EXPECT_NE(planKey(ca), planKey(cb));
        EXPECT_NE(queueAllocKey(ca), queueAllocKey(cb));
        b.record_provenance = false;
        PipelineContext cc(w, b);
        EXPECT_EQ(partitionKey(ca), partitionKey(cc));
        EXPECT_EQ(planKey(ca), planKey(cc));
        EXPECT_EQ(queueAllocKey(ca), queueAllocKey(cc));
        EXPECT_EQ(partitionKey(ca),
                  "partition|" + w.cacheKey() + "|DSWP|nt=2|train");
    }
    // Different workload shares nothing.
    {
        Workload v = makeKs();
        PipelineContext cb(v, a);
        EXPECT_NE(irKey(ca), irKey(cb));
        EXPECT_NE(pdgKey(ca), pdgKey(cb));
        EXPECT_NE(partitionKey(ca), partitionKey(cb));
    }
    // Default queue capacity is the per-scheduler paper value.
    EXPECT_EQ(resolvedQueueCapacity(a), 32);
    PipelineOptions g = a;
    g.scheduler = Scheduler::Gremio;
    EXPECT_EQ(resolvedQueueCapacity(g), 1);
    g.queue_capacity = 7;
    EXPECT_EQ(resolvedQueueCapacity(g), 7);
}

std::vector<ExperimentCell>
determinismGrid()
{
    std::vector<ExperimentCell> cells;
    for (const Workload &w : {makeAdpcmDec(), makeKs()})
        for (Scheduler s : {Scheduler::Dswp, Scheduler::Gremio})
            for (bool coco : {false, true}) {
                PipelineOptions o;
                o.scheduler = s;
                o.use_coco = coco;
                cells.push_back({w, o});
            }
    return cells;
}

/** The acceptance oracle: parallel + cached == serial + uncached,
 *  field for field, in cell order. */
TEST(ExperimentRunner, ParallelMatchesSerialBitIdentical)
{
    auto cells = determinismGrid();

    ExperimentOptions serial;
    serial.jobs = 1;
    serial.use_cache = false;
    ExperimentRunner serial_runner(serial);
    auto expected = serial_runner.runAll(cells);
    EXPECT_EQ(serial_runner.effectiveJobs(), 1);

    ExperimentOptions par;
    par.jobs = 4;
    par.use_cache = true;
    ExperimentRunner par_runner(par);
    auto got = par_runner.runAll(cells);
    EXPECT_EQ(par_runner.effectiveJobs(), 4);

    ASSERT_EQ(expected.size(), got.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(expected[i], got[i]) << "cell " << i;

    EXPECT_EQ(par_runner.summary().cells, static_cast<int>(cells.size()));
    EXPECT_GT(par_runner.summary().cache.hits, 0u);
    EXPECT_EQ(serial_runner.summary().cache.hits, 0u);
}

TEST(ExperimentRunner, RepeatedBatchIsAllHitsAndIdentical)
{
    auto cells = determinismGrid();
    ExperimentRunner runner;
    auto first = runner.runAll(cells);
    auto after_first = runner.cache().counters();
    auto second = runner.runAll(cells);
    auto after_second = runner.cache().counters();
    EXPECT_EQ(first, second);
    // Second batch recomputes nothing: no new misses, only hits.
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_GT(after_second.hits, after_first.hits);
}

TEST(ExperimentRunner, FirstFailingCellErrorInCellOrder)
{
    Workload bad = makeAdpcmDec();
    bad.ref_args.clear(); // interpreter will reject missing args
    std::vector<ExperimentCell> cells{{bad, {}}, {makeKs(), {}}};
    ExperimentOptions opts;
    opts.jobs = 2;
    ExperimentRunner runner(opts);
    EXPECT_ANY_THROW(runner.runAll(cells));
}

TEST(Stats, JsonObjectRenderAndEscape)
{
    JsonObject o;
    o.str("name", "a\"b\\c\n").num("i", int64_t{-3}).num("d", 1.5);
    o.boolean("ok", true);
    EXPECT_EQ(o.render(),
              "{\"name\":\"a\\\"b\\\\c\\n\",\"i\":-3,\"d\":1.5,"
              "\"ok\":true}");

    // The shared escaper: short forms for \n and \t, a \u00XX escape
    // for every other control character.
    EXPECT_EQ(JsonObject::escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(JsonObject::escape(std::string("a\x01" "b\tc")),
              "a\\u0001b\\tc");
}

TEST(Stats, SinkWritesOneRecordPerPassAndCell)
{
    std::ostringstream out;
    StatsSink sink(out);

    ExperimentOptions opts;
    opts.jobs = 1;
    opts.stats = &sink;
    ExperimentRunner runner(opts);
    PipelineOptions po;
    po.scheduler = Scheduler::Gremio;
    runner.runAll({{makeAdpcmDec(), po}});

    // 13 pass records + 2 sim-engine records (st, mt) + 1 cell record.
    EXPECT_EQ(sink.recordsWritten(), kStandardPasses.size() + 3);
    std::istringstream in(out.str());
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"cell\":\"adpcmdec/GREMIO\""),
                  std::string::npos);
        ++lines;
    }
    EXPECT_EQ(lines, sink.recordsWritten());
    EXPECT_NE(out.str().find("\"pass\":\"build-ir\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"type\":\"cell\""), std::string::npos);
    EXPECT_NE(out.str().find("\"type\":\"sim\""), std::string::npos);
    EXPECT_NE(out.str().find("\"which\":\"st\""), std::string::npos);
    EXPECT_NE(out.str().find("\"which\":\"mt\""), std::string::npos);
    EXPECT_NE(out.str().find("\"engine\":\"fast\""), std::string::npos);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&]() { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 100);
    // The pool is reusable after wait().
    pool.submit([&]() { ++done; });
    pool.wait();
    EXPECT_EQ(done.load(), 101);
}

} // namespace
} // namespace gmt
