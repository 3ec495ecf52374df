/**
 * @file
 * Feedback-directed autotuner tests (src/autotune/): convergence
 * determinism across jobs / cache states / warm-vs-cold max-flow,
 * trajectory monotonicity (an accepted move never worsens simulated
 * cycles), clean static verification (happens-before included) of
 * every intermediate schedule via the on_accept hook, cache-key and
 * cell-id plumbing, and the MetricsRegistry counters.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "driver/pass_manager.hpp"
#include "mtverify/mtverify.hpp"
#include "obs/metrics.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

PipelineOptions
autotuneOptions(Scheduler sched)
{
    PipelineOptions po;
    po.scheduler = sched;
    po.use_coco = true;
    po.autotune = true;
    return po;
}

/** Run one cell through the standard pipeline. */
void
runCell(PipelineContext &ctx)
{
    PassManager::standardPipeline().run(ctx);
    ASSERT_TRUE(ctx.autotune) << "autotune pass did not publish";
}

TEST(Autotune, ImprovesOrHoldsAndConverges)
{
    Workload w = makeKs();
    PipelineContext ctx(w, autotuneOptions(Scheduler::Gremio));
    runCell(ctx);

    const PipelineResult &r = ctx.result;
    EXPECT_TRUE(r.autotuned);
    EXPECT_TRUE(r.autotune_converged);
    EXPECT_GT(r.baseline_mt_cycles, 0u);
    EXPECT_LE(r.mt_cycles, r.baseline_mt_cycles);
    EXPECT_GE(r.autotune_iterations, 1);

    const AutotuneResult &at = ctx.autotune->result;
    EXPECT_EQ(at.baseline_cycles, r.baseline_mt_cycles);
    EXPECT_EQ(at.final_schedule.cycles, r.mt_cycles);
    EXPECT_FALSE(ctx.autotune->moves_json.empty());
}

// The monotonicity unit: the trajectory is strictly decreasing (one
// entry per accepted move after the baseline), and every accepted
// move in the log improves on the cycles it started from.
TEST(Autotune, AcceptedMovesNeverWorsenCycles)
{
    for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
        for (Workload (*make)() :
             {makeKs, makeAdpcmDec, makeAdpcmEnc}) {
            Workload w = make();
            PipelineContext ctx(w, autotuneOptions(sched));
            runCell(ctx);
            const AutotuneResult &at = ctx.autotune->result;

            ASSERT_FALSE(at.trajectory.empty());
            EXPECT_EQ(at.trajectory.size(),
                      1 + static_cast<size_t>(at.moves_accepted));
            for (size_t i = 1; i < at.trajectory.size(); ++i)
                EXPECT_LT(at.trajectory[i], at.trajectory[i - 1])
                    << w.name;

            uint64_t prev = at.baseline_cycles;
            for (const AutotuneMove &m : at.moves) {
                if (!m.accepted)
                    continue;
                EXPECT_LT(m.cycles, prev) << w.name;
                prev = m.cycles;
            }
            EXPECT_EQ(prev, at.final_schedule.cycles) << w.name;
        }
    }
}

/**
 * The determinism contract: the tuned plan, the move log (canonical
 * JSON bytes), the trajectory, and the whole PipelineResult are
 * identical however the cell is executed — serially with no cache,
 * against a cold cache, against a warm cache (pure hit), as four
 * concurrent copies sharing one cache on a 4-worker pool, and with
 * the max-flow warm-start path disabled (every solve cold).
 */
TEST(Autotune, DeterministicAcrossJobsCacheAndWarmStart)
{
    Workload w = makeKs();

    // Reference: serial, no cache.
    PipelineContext base(w, autotuneOptions(Scheduler::Gremio));
    runCell(base);

    auto expectSame = [&](const PipelineContext &other,
                          const char *what) {
        EXPECT_EQ(base.result, other.result) << what;
        EXPECT_EQ(base.autotune->moves_json,
                  other.autotune->moves_json)
            << what;
        EXPECT_EQ(base.autotune->result.trajectory,
                  other.autotune->result.trajectory)
            << what;
        EXPECT_EQ(base.partition->partition.assign,
                  other.partition->partition.assign)
            << what;
        EXPECT_EQ(base.plan->plan == other.plan->plan, true) << what;
        EXPECT_EQ(base.autotune->result.iter_wall_ms.size(),
                  other.autotune->result.iter_wall_ms.size())
            << what;
    };

    // Cold cache, then a pure-hit warm rerun of the same cache.
    ArtifactCache cache;
    PipelineContext cold(w, autotuneOptions(Scheduler::Gremio));
    cold.cache = &cache;
    runCell(cold);
    expectSame(cold, "cold cache");

    PipelineContext warm(w, autotuneOptions(Scheduler::Gremio));
    warm.cache = &cache;
    runCell(warm);
    expectSame(warm, "warm cache");
    bool autotune_hit = false;
    for (const PassStats &ps : warm.pass_stats)
        if (ps.pass == "autotune")
            autotune_hit = ps.cached;
    EXPECT_TRUE(autotune_hit);

    // Concurrent copies of the cell on a 4-worker pool, sharing one
    // cache (the experiment runner's --jobs axis).
    ArtifactCache shared;
    std::vector<std::unique_ptr<PipelineContext>> copies;
    for (int i = 0; i < 4; ++i) {
        copies.push_back(std::make_unique<PipelineContext>(
            w, autotuneOptions(Scheduler::Gremio)));
        copies.back()->cache = &shared;
    }
    {
        ThreadPool pool(4);
        for (auto &ctx : copies)
            pool.submit([&ctx] { runCell(*ctx); });
        pool.wait();
    }
    for (const auto &ctx : copies)
        expectSame(*ctx, "jobs=4 shared cache");

    // Warm-start ablation: every max-flow solve cold.
    PipelineOptions po2 = autotuneOptions(Scheduler::Gremio);
    po2.coco.warm_start = false;
    PipelineContext coldflow(w, po2);
    runCell(coldflow);
    EXPECT_EQ(base.result, coldflow.result) << "warm_start=false";
    EXPECT_EQ(base.autotune->result.trajectory,
              coldflow.autotune->result.trajectory)
        << "warm_start=false";
    // The move log's decisions match too, though the canonical JSON
    // is compared via the cycles/acceptance fields rather than bytes:
    // solver execution counters are deliberately excluded from it.
    EXPECT_EQ(base.autotune->moves_json, coldflow.autotune->moves_json)
        << "warm_start=false";
}

/**
 * Every intermediate (accepted) schedule statically verifies clean,
 * happens-before race check included — observed through the
 * on_accept hook, which fires once per accepted move with the full
 * schedule about to become current.
 */
TEST(Autotune, IntermediateSchedulesVerifyClean)
{
    Workload w = makeKs();
    PipelineContext ctx(w, autotuneOptions(Scheduler::Gremio));
    int verified = 0;
    ctx.opts.autotune_opts.on_accept =
        [&](const AutotuneSchedule &s) {
            ASSERT_TRUE(ctx.ir && ctx.pdg);
            MtVerifyInput in;
            in.orig = &ctx.ir->func;
            in.pdg = &ctx.pdg->pdg;
            in.partition = &s.partition;
            in.plan = &s.plan;
            in.queue_of = &s.queue_of;
            in.prog = &s.prog;
            in.check_hb = true;
            MtVerifyResult res = verifyMtProgram(in);
            EXPECT_TRUE(res.ok())
                << "intermediate schedule fails mtverify";
            ++verified;
        };
    runCell(ctx);
    EXPECT_EQ(verified, ctx.result.autotune_moves_accepted);
    EXPECT_GT(verified, 0) << "ks/GREMIO should accept >= 1 move";
}

TEST(Autotune, CellIdAndCacheKeyCarryTheAutotuneAxes)
{
    Workload w = makeKs();
    PipelineContext on(w, autotuneOptions(Scheduler::Gremio));
    PipelineOptions po_off = autotuneOptions(Scheduler::Gremio);
    po_off.autotune = false;
    PipelineContext off(w, po_off);

    EXPECT_NE(on.cellId().find("+AT"), std::string::npos);
    EXPECT_EQ(off.cellId().find("+AT"), std::string::npos);

    EXPECT_NE(autotuneKey(on), autotuneKey(off));
    EXPECT_NE(autotuneKey(on).find("|at|"), std::string::npos);
    // Upstream keys are shared: baseline and autotuned cells reuse
    // the same codegen artifacts.
    EXPECT_EQ(queueAllocKey(on), queueAllocKey(off));
    // Downstream keys split: the obs artifacts describe different
    // schedules.
    EXPECT_NE(obsProfileKey(on), obsProfileKey(off));
    EXPECT_NE(provenanceKey(on), provenanceKey(off));
}

TEST(Autotune, MetricsCountersAccumulate)
{
    MetricsRegistry &m = MetricsRegistry::global();
    const uint64_t it0 = m.counter("autotune.iterations").value();
    const uint64_t acc0 = m.counter("autotune.moves_accepted").value();
    const uint64_t rej0 = m.counter("autotune.moves_rejected").value();
    const uint64_t warm0 =
        m.counter("autotune.warm_cut_reuses").value();

    Workload w = makeKs();
    PipelineContext ctx(w, autotuneOptions(Scheduler::Gremio));
    runCell(ctx);

    const AutotuneResult &at = ctx.autotune->result;
    EXPECT_EQ(m.counter("autotune.iterations").value() - it0,
              static_cast<uint64_t>(at.iterations));
    EXPECT_EQ(m.counter("autotune.moves_accepted").value() - acc0,
              static_cast<uint64_t>(at.moves_accepted));
    EXPECT_EQ(m.counter("autotune.moves_rejected").value() - rej0,
              static_cast<uint64_t>(at.moves_rejected));
    EXPECT_EQ(m.counter("autotune.warm_cut_reuses").value() - warm0,
              at.warm_cut_reuses);
}

} // namespace
} // namespace gmt
