#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "coco/validate.hpp"
#include "driver/pass_manager.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "mtverify/mtverify.hpp"
#include "mtverify/queue_balance.hpp"
#include "mtverify/thread_map.hpp"
#include "pdg/pdg_builder.hpp"
#include "support/rng.hpp"
#include "workloads/generate.hpp"
#include "workloads/workload.hpp"

namespace gmt
{
namespace
{

// ---------------------------------------------------------------------
// Reference oracle for theorem 2: the per-queue balance dataflow the
// single sparse pass replaced. One whole-CFG walk per queue, with
// dense per-block vectors; checkQueueBalance must report exactly the
// same diagnostics in the same order.
// ---------------------------------------------------------------------

bool
refIsProduce(Opcode op)
{
    return op == Opcode::Produce || op == Opcode::ProduceSync;
}

bool
refIsConsume(Opcode op)
{
    return op == Opcode::Consume || op == Opcode::ConsumeSync;
}

bool
refIsSync(Opcode op)
{
    return op == Opcode::ProduceSync || op == Opcode::ConsumeSync;
}

void
referenceQueueBalance(const Function &orig, const MtProgram &prog,
                      const std::vector<ThreadCodeMap> &maps,
                      std::vector<MtvDiag> &diags)
{
    const int nt = static_cast<int>(prog.threads.size());
    for (int t = 0; t < nt; ++t) {
        const Function &f = prog.threads[t];
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            for (InstrId i : f.block(b).instrs()) {
                const Instr &in = f.instr(i);
                if (in.isCommunication() &&
                    (in.queue < 0 || in.queue >= prog.num_queues))
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

    constexpr int kUnvisited = std::numeric_limits<int>::min();
    constexpr int kTop = std::numeric_limits<int>::min() + 1;
    for (QueueId q = 0; q < prog.num_queues; ++q) {
        const QueueEndpoints &e = ends[q];
        if (e.conflict || (e.producer == -1 && e.consumer == -1))
            continue;
        auto sequences = [&](int t, bool produces) {
            std::vector<std::vector<InstrId>> seq(orig.numBlocks());
            if (t == -1)
                return seq;
            const std::vector<BlockId> &image = maps[t].emitted_block;
            for (BlockId ob = 0; ob < orig.numBlocks(); ++ob) {
                BlockId eb = ob < static_cast<BlockId>(image.size())
                                 ? image[ob]
                                 : kNoBlock;
                if (eb == kNoBlock)
                    continue;
                for (InstrId ei : prog.threads[t].block(eb).instrs()) {
                    const Instr &in = prog.threads[t].instr(ei);
                    if (in.isCommunication() && in.queue == q &&
                        (produces ? refIsProduce(in.op)
                                  : refIsConsume(in.op)))
                        seq[ob].push_back(ei);
                }
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
                int merged =
                    in[s] == kUnvisited || in[s] == out ? out : kTop;
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
                if (refIsSync(po) == refIsSync(co))
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

/** checkQueueBalance against the oracle on one program; @return the
 *  number of balance findings. */
int
expectBalanceMatchesOracle(const Function &orig, const MtProgram &prog,
                           const std::string &what)
{
    std::vector<MtvDiag> map_diags;
    std::vector<ThreadCodeMap> maps;
    for (int t = 0; t < static_cast<int>(prog.threads.size()); ++t)
        maps.push_back(
            buildThreadCodeMap(orig, prog.threads[t], t, map_diags));
    std::vector<MtvDiag> got, want;
    checkQueueBalance(orig, prog, maps, got);
    referenceQueueBalance(orig, prog, maps, want);
    EXPECT_EQ(got, want) << what;
    return static_cast<int>(want.size());
}

// ---------------------------------------------------------------------
// Harness: build a full (function, pdg, partition, plan, program) cell
// with stable addresses, then let each test mutate the emitted program
// (or the witness) and assert which diagnostic code trips.
// ---------------------------------------------------------------------

struct Cell
{
    std::unique_ptr<Function> f;
    std::unique_ptr<Pdg> pdg;
    ThreadPartition part;
    CommPlan plan;
    MtProgram prog;

    MtVerifyInput
    input() const
    {
        return {.orig = f.get(),
                .pdg = pdg.get(),
                .partition = &part,
                .plan = &plan,
                .queue_of = nullptr,
                .prog = &prog};
    }

    /** Verify; every call also checks the balance pass against its
     *  oracle, so each mutation below is a differential case too. */
    MtVerifyResult
    verify() const
    {
        expectBalanceMatchesOracle(*f, prog, f->name());
        return verifyMtProgram(input());
    }
};

Cell
makeCell(Function fin, ThreadPartition part, int queue_capacity = 32)
{
    Cell c;
    c.f = std::make_unique<Function>(std::move(fin));
    verifyOrDie(*c.f);
    auto pdom = DominatorTree::postDominators(*c.f);
    ControlDependence cd(*c.f, pdom);
    c.pdg = std::make_unique<Pdg>(buildPdg(*c.f, cd));
    c.part = std::move(part);
    c.plan = defaultMtcgPlan(*c.f, *c.pdg, c.part, cd);
    c.prog = runMtcg(*c.f, *c.pdg, c.part, c.plan, cd,
                     {.queue_capacity = queue_capacity});
    return c;
}

bool
hasCode(const MtVerifyResult &r, MtvCode code)
{
    for (const MtvDiag &d : r.diags)
        if (d.code == code)
            return true;
    return false;
}

/** The full rendered diag list, one string per finding. */
std::vector<std::string>
rendered(const MtVerifyResult &r)
{
    std::vector<std::string> out;
    for (const MtvDiag &d : r.diags)
        out.push_back(renderDiag(d));
    return out;
}

/** First instruction in @p f's block lists matching @p pred. */
struct Found
{
    BlockId block = kNoBlock;
    int pos = -1;
    InstrId id = kNoInstr;
};

template <typename Pred>
Found
findInstr(const Function &f, Pred pred)
{
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &list = f.block(b).instrs();
        for (int p = 0; p < static_cast<int>(list.size()); ++p)
            if (pred(f.instr(list[p])))
                return {b, p, list[p]};
    }
    return {};
}

void
eraseAt(Function &f, Found at)
{
    ASSERT_NE(at.id, kNoInstr);
    auto &list = f.block(at.block).instrs();
    list.erase(list.begin() + at.pos);
}

// ---------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------

/** Straight line, two one-way queues: t0 defines a = x + 1 and
 *  c = x * x; t1 computes a + c and returns it. */
Cell
twoProducerCell()
{
    FunctionBuilder b("twoprod");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg a = b.addImm(x, 1); // Const + Add
    Reg c = b.mul(x, x);
    Reg s = b.add(a, c);
    b.ret({s});
    Function f = b.finish();

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 1);
    const auto &il = f.block(bb).instrs();
    p.assign[il[0]] = 0; // Const 1
    p.assign[il[1]] = 0; // a = x + 1
    p.assign[il[2]] = 0; // c = x * x
    return makeCell(std::move(f), std::move(p));
}

/** Bidirectional pipeline: t0 sends a to t1, t1 sends m = a * a back,
 *  t0 returns m + x. The produce and consume are adjacent in t0. */
Cell
bidirectionalCell()
{
    FunctionBuilder b("bidir");
    Reg x = b.param();
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg a = b.addImm(x, 1);
    Reg m = b.mul(a, a);
    Reg d = b.add(m, x);
    b.ret({d});
    Function f = b.finish();

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    p.assign[f.block(bb).instrs()[2]] = 1; // m = a * a
    return makeCell(std::move(f), std::move(p));
}

/** Cross-thread memory dependence: t0 stores, t1 loads the same alias
 *  class, so the plan carries exactly one memory-sync placement. */
Cell
memorySyncCell()
{
    FunctionBuilder b("memsync");
    Reg x = b.param(); // address
    BlockId bb = b.newBlock("b");
    b.setBlock(bb);
    Reg v = b.constI(7);
    b.store(x, 0, v, 1);
    Reg w = b.load(x, 0, 1);
    Reg s = b.addImm(w, 1);
    b.ret({s});
    Function f = b.finish();

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 1);
    const auto &il = f.block(bb).instrs();
    p.assign[il[0]] = 0; // Const 7
    p.assign[il[1]] = 0; // Store
    return makeCell(std::move(f), std::move(p));
}

/** r defined under a branch in t0, used by t1: t1 replicates the
 *  branch and consumes r at two points (one per reaching def). */
Cell
conditionalCell(bool then_taken = true)
{
    FunctionBuilder b("cond");
    Reg c = b.param();
    BlockId top = b.newBlock("top");
    BlockId then_b = b.newBlock("then");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    Reg r = b.constI(10);
    if (then_taken)
        b.br(c, then_b, join);
    else
        b.br(c, join, then_b);
    b.setBlock(then_b);
    b.constInto(r, 20);
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.addImm(r, 1);
    b.ret({s});
    Function f = b.finish();
    splitCriticalEdges(f);

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    for (InstrId i : f.block(join).instrs())
        p.assign[i] = 1;
    return makeCell(std::move(f), std::move(p));
}

/** Branch and both its dependents stay in t0; t1 owns only the
 *  control-independent join. No communication at all. */
Cell
controlFreeCell()
{
    FunctionBuilder b("ctrlfree");
    Reg c = b.param();
    Reg x = b.param();
    BlockId top = b.newBlock("top");
    BlockId then_b = b.newBlock("then");
    BlockId join = b.newBlock("join");
    b.setBlock(top);
    b.br(c, then_b, join);
    b.setBlock(then_b);
    (void)b.constI(20); // t0-only work under the branch
    b.jmp(join);
    b.setBlock(join);
    Reg s = b.addImm(x, 1);
    b.ret({s});
    Function f = b.finish();
    splitCriticalEdges(f);

    ThreadPartition p;
    p.num_threads = 2;
    p.assign.assign(f.numInstrs(), 0);
    for (InstrId i : f.block(join).instrs())
        p.assign[i] = 1;
    return makeCell(std::move(f), std::move(p));
}

// ---------------------------------------------------------------------
// Clean runs: correct emission verifies with zero findings.
// ---------------------------------------------------------------------

TEST(MtVerifyClean, StraightLineTwoQueues)
{
    auto res = twoProducerCell().verify();
    EXPECT_TRUE(res.diags.empty()) << res.render();
}

TEST(MtVerifyClean, BidirectionalPipeline)
{
    auto res = bidirectionalCell().verify();
    EXPECT_TRUE(res.diags.empty()) << res.render();
}

TEST(MtVerifyClean, MemorySynchronization)
{
    auto res = memorySyncCell().verify();
    EXPECT_TRUE(res.diags.empty()) << res.render();
}

TEST(MtVerifyClean, ConditionalWithDuplicatedBranch)
{
    auto res = conditionalCell().verify();
    EXPECT_TRUE(res.diags.empty()) << res.render();
}

/** Every figure cell — 11 workloads x {DSWP, GREMIO} x {default,
 *  COCO} — must verify clean, exactly as the verify-mt pass and
 *  gmt-lint demand. */
TEST(MtVerifyClean, AllWorkloadCells)
{
    int hb_pairs = 0;
    for (const Workload &w : allWorkloads()) {
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (bool coco : {false, true}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = coco;
                po.simulate = false;
                po.verify_mt = false; // run the verifier ourselves
                PipelineContext ctx(w, po);
                PassManager::codegenPipeline().run(ctx);
                auto res = verifyMtProgram(
                    {.orig = &ctx.ir->func,
                     .pdg = &ctx.pdg->pdg,
                     .partition = &ctx.partition->partition,
                     .plan = &ctx.plan->plan,
                     .queue_of = &ctx.prog->queue_of,
                     .prog = &ctx.prog->prog});
                EXPECT_TRUE(res.diags.empty())
                    << ctx.cellId() << "\n"
                    << res.render();
                hb_pairs += res.hb_pairs;
            }
        }
    }
    // The matrix must actually exercise the happens-before engine:
    // some cells carry cross-thread memory deps, each proven ordered.
    EXPECT_GT(hb_pairs, 0);
}

/** Queue multiplexing changes the witness (queue_of) but must still
 *  verify clean. */
TEST(MtVerifyClean, MultiplexedQueues)
{
    auto all = allWorkloads();
    for (size_t wi = 0; wi < 3 && wi < all.size(); ++wi) {
        PipelineOptions po;
        po.max_queues = 4;
        po.simulate = false;
        po.verify_mt = false;
        PipelineContext ctx(all[wi], po);
        PassManager::codegenPipeline().run(ctx);
        auto res = verifyMtProgram(
            {.orig = &ctx.ir->func,
             .pdg = &ctx.pdg->pdg,
             .partition = &ctx.partition->partition,
             .plan = &ctx.plan->plan,
             .queue_of = &ctx.prog->queue_of,
             .prog = &ctx.prog->prog});
        EXPECT_TRUE(res.diags.empty())
            << ctx.cellId() << "\n"
            << res.render();
    }
}

// ---------------------------------------------------------------------
// Mutation harness: each injected bug class must trip its specific
// diagnostic code.
// ---------------------------------------------------------------------

TEST(MtVerifyMutation, DroppedProduce)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::Produce;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingProduce)) << res.render();
    // The queue also ends imbalanced: one consume, zero produces.
    EXPECT_TRUE(hasCode(res, MtvCode::QueueImbalance)) << res.render();
    EXPECT_EQ(rendered(res), (std::vector<std::string>{
                                 "[error missing-produce] T0 B0:2 q0: "
                                 "plan placement 0 expects produce on "
                                 "q0 of r2 at b:2; not emitted",
                                 "[error queue-imbalance] B0 q0: "
                                 "queue ends with -1 unmatched "
                                 "token(s) at exit (produces vs "
                                 "consumes diverge)"
                             }));
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, DroppedConsume)
{
    Cell cell = twoProducerCell();
    Function &t1 = cell.prog.threads[1];
    eraseAt(t1, findInstr(t1, [](const Instr &i) {
                return i.op == Opcode::Consume;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingConsume)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, SwappedQueueIds)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    // Swap the queue fields of t0's two produces.
    std::vector<InstrId> prods;
    for (InstrId i : t0.block(0).instrs())
        if (t0.instr(i).op == Opcode::Produce)
            prods.push_back(i);
    ASSERT_EQ(prods.size(), 2u);
    std::swap(t0.instr(prods[0]).queue, t0.instr(prods[1]).queue);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::QueueMismatch)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ConsumeReorderedBeforeProduceDeadlocks)
{
    Cell cell = bidirectionalCell();
    Function &t0 = cell.prog.threads[0];
    // t0 emits produce(a) immediately before consume(m). Swapping them
    // makes t0 wait on t1's reply before sending the request: a
    // classic cross-thread wait-for cycle.
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    Found co = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Consume;
    });
    ASSERT_NE(pr.id, kNoInstr);
    ASSERT_NE(co.id, kNoInstr);
    ASSERT_EQ(pr.block, co.block);
    auto &list = t0.block(pr.block).instrs();
    std::swap(list[pr.pos], list[co.pos]);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::DeadlockCycle)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, DroppedMemorySyncToken)
{
    Cell cell = memorySyncCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::ProduceSync;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingSyncToken))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, SyncTokenDemotedToData)
{
    Cell cell = memorySyncCell();
    Function &t0 = cell.prog.threads[0];
    Found ps = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::ProduceSync;
    });
    ASSERT_NE(ps.id, kNoInstr);
    t0.instr(ps.id).op = Opcode::Produce;
    t0.instr(ps.id).src1 = 0; // any valid register
    auto res = cell.verify();
    // Emission disagrees with the plan's kind at that point...
    EXPECT_TRUE(hasCode(res, MtvCode::CommKindMismatch))
        << res.render();
    // ...and the endpoints disagree data-vs-sync on the matched token.
    EXPECT_TRUE(hasCode(res, MtvCode::TokenKindMismatch))
        << res.render();
    EXPECT_EQ(rendered(res), (std::vector<std::string>{
                                 "[error comm-kind-mismatch] T0 B0:2 "
                                 "q0: produce emitted where the plan "
                                 "expects produce.sync",
                                 "[error token-kind-mismatch] B0:0 "
                                 "q0: token 0 produced as produce but "
                                 "consumed as consume.sync"
                             }));
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ProduceCarriesWrongRegister)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    ASSERT_NE(pr.id, kNoInstr);
    t0.instr(pr.id).src1 = 0; // the parameter, not the planned reg
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::RegMismatch)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ExtraUnjustifiedComm)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    ASSERT_NE(pr.id, kNoInstr);
    Instr dup = t0.instr(pr.id);
    t0.insertAt(pr.block, pr.pos + 1, dup);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::ExtraComm)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, QueueIdOutOfRange)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    ASSERT_NE(pr.id, kNoInstr);
    t0.instr(pr.id).queue = 99;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::BadQueueId)) << res.render();
    EXPECT_FALSE(res.ok());
}

/** Out-of-range comm ops between in-range ones, on both sides of the
 *  range: each is reported once as BadQueueId and never indexes a
 *  per-queue table (the sanitizer build runs this). */
TEST(MtVerifyMutation, QueueIdOutOfRangeMidBlock)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Function &t1 = cell.prog.threads[1];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    Found co = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::Consume;
    });
    ASSERT_NE(pr.id, kNoInstr);
    ASSERT_NE(co.id, kNoInstr);
    t0.insertAt(pr.block, pr.pos + 1,
                {.op = Opcode::ProduceSync, .queue = 1000});
    t1.insertAt(co.block, co.pos + 1,
                {.op = Opcode::ConsumeSync, .queue = -7});
    auto res = cell.verify();
    EXPECT_EQ(rendered(res), (std::vector<std::string>{
                                 "[error extra-comm] T1 B0 q-7: "
                                 "consume.sync on q-7 not justified "
                                 "by any plan point",
                                 "[error extra-comm] T0 B0 q1000: "
                                 "produce.sync on q1000 not justified "
                                 "by any plan point",
                                 "[error bad-queue-id] T1 B0 q-7: "
                                 "queue id outside [0, 2)",
                                 "[error bad-queue-id] T0 B0 q1000: "
                                 "queue id outside [0, 2)"
                             }));
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, QueueEndpointRolesConflict)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found pr = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Produce;
    });
    ASSERT_NE(pr.id, kNoInstr);
    // Turn one of t0's produces into a consume: its queue now has
    // consumers in both threads.
    Instr &in = t0.instr(pr.id);
    in.op = Opcode::Consume;
    in.dst = in.src1;
    in.src1 = kNoReg;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::QueueEndpointConflict))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ProduceMissingOnOnePath)
{
    Cell cell = conditionalCell();
    Function &t0 = cell.prog.threads[0];
    // The then-block image (terminated by a Jmp) carries the produce
    // for the conditional redefinition; dropping it leaves the queue's
    // token count path-dependent at the join.
    Found pr{};
    for (BlockId b = 0; b < t0.numBlocks() && pr.id == kNoInstr; ++b) {
        InstrId term = t0.block(b).terminator();
        if (term == kNoInstr || t0.instr(term).op != Opcode::Jmp)
            continue;
        const auto &list = t0.block(b).instrs();
        for (int p = 0; p < static_cast<int>(list.size()); ++p)
            if (t0.instr(list[p]).op == Opcode::Produce)
                pr = {b, p, list[p]};
    }
    eraseAt(t0, pr);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::QueueImbalance)) << res.render();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingProduce)) << res.render();
    EXPECT_EQ(rendered(res), (std::vector<std::string>{
                                 "[error missing-produce] T0 B1:1 q1: "
                                 "plan placement 1 expects produce on "
                                 "q1 of r1 at then:1; not emitted",
                                 "[error queue-imbalance] B2 q1: "
                                 "in-flight token count diverges "
                                 "between paths reaching join"
                             }));
    EXPECT_FALSE(res.ok());
}

/** t1's consume sunk from the then block into the join: the paths
 *  reaching the join carry one token and none, and the join's consume
 *  evens out only one of them. The divergent merge must be reported
 *  whichever of top's successors the balance pass visits first. */
TEST(MtVerifyMutation, ConsumeSunkIntoJoin)
{
    for (bool then_taken : {true, false}) {
        Cell cell = conditionalCell(then_taken);
        ASSERT_TRUE(cell.verify().diags.empty());
        Function &t1 = cell.prog.threads[1];
        Found cons{}, ret{};
        for (BlockId b = 0; b < t1.numBlocks(); ++b) {
            InstrId term = t1.block(b).terminator();
            if (term != kNoInstr && t1.instr(term).op == Opcode::Ret)
                ret = {b, 0, term};
            if (term == kNoInstr || t1.instr(term).op != Opcode::Jmp)
                continue;
            const auto &list = t1.block(b).instrs();
            for (int p = 0; p < static_cast<int>(list.size()); ++p)
                if (t1.instr(list[p]).op == Opcode::Consume)
                    cons = {b, p, list[p]};
        }
        ASSERT_NE(cons.id, kNoInstr);
        ASSERT_NE(ret.id, kNoInstr);
        eraseAt(t1, cons);
        auto &dest = t1.block(ret.block).instrs();
        dest.insert(dest.begin(), cons.id);
        t1.instr(cons.id).block = ret.block;
        auto res = cell.verify();
        EXPECT_TRUE(hasCode(res, MtvCode::QueueImbalance))
            << then_taken << "\n"
            << res.render();
    }
}

/** r's two queues merged into one, t0's then-block token made a sync
 *  token, and t1's top-block consume of r sunk into the join: every
 *  path stays balanced, but a token is in flight into the then block
 *  and the join. Kinds are paired only in blocks entered with no token
 *  in flight, so no kind finding is made. */
TEST(MtVerifyMutation, KindPairingSkippedWhileTokenInFlight)
{
    Cell cell = conditionalCell();
    Function &t1 = cell.prog.threads[1];
    // t1's last consume in the top image (r's first value), the
    // consume in the then image (r's second value), and the join.
    Found sunk{}, then_cons{}, ret{};
    for (BlockId b = 0; b < t1.numBlocks(); ++b) {
        InstrId term = t1.block(b).terminator();
        if (term == kNoInstr)
            continue;
        Opcode op = t1.instr(term).op;
        if (op == Opcode::Ret)
            ret = {b, 0, term};
        const auto &list = t1.block(b).instrs();
        for (int p = 0; p < static_cast<int>(list.size()); ++p) {
            if (t1.instr(list[p]).op != Opcode::Consume)
                continue;
            if (op == Opcode::Br)
                sunk = {b, p, list[p]};
            else if (op == Opcode::Jmp)
                then_cons = {b, p, list[p]};
        }
    }
    ASSERT_NE(sunk.id, kNoInstr);
    ASSERT_NE(then_cons.id, kNoInstr);
    ASSERT_NE(ret.id, kNoInstr);
    QueueId qa = t1.instr(sunk.id).queue;
    QueueId qt = t1.instr(then_cons.id).queue;
    ASSERT_NE(qa, qt);
    for (Function &t : cell.prog.threads) {
        for (BlockId b = 0; b < t.numBlocks(); ++b) {
            for (InstrId i : t.block(b).instrs()) {
                Instr &in = t.instr(i);
                if (!in.isCommunication() || in.queue != qt)
                    continue;
                in.queue = qa;
                if (in.op == Opcode::Produce)
                    in.op = Opcode::ProduceSync;
            }
        }
    }
    eraseAt(t1, sunk);
    auto &dest = t1.block(ret.block).instrs();
    dest.insert(dest.begin(), sunk.id);
    t1.instr(sunk.id).block = ret.block;
    auto res = cell.verify();
    EXPECT_FALSE(hasCode(res, MtvCode::QueueImbalance)) << res.render();
    EXPECT_FALSE(hasCode(res, MtvCode::TokenKindMismatch))
        << res.render();
}

TEST(MtVerifyMutation, OwnedInstructionNotCopied)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::Mul;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MissingInstr)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, CopyOperandsMangled)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found mul = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Mul;
    });
    ASSERT_NE(mul.id, kNoInstr);
    Instr &in = t0.instr(mul.id);
    ASSERT_NE(in.src2 + 1, in.src1);
    in.src2 = in.src2 + 1; // a different (valid) register
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::MangledInstr)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, CopyWithoutOrigin)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found mul = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Mul;
    });
    ASSERT_NE(mul.id, kNoInstr);
    t0.instr(mul.id).origin = kNoInstr;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::OrphanInstr)) << res.render();
    // The owned original now has no copy either.
    EXPECT_TRUE(hasCode(res, MtvCode::MissingInstr)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, CopyHoistedIntoWrongBlock)
{
    Cell cell = conditionalCell();
    Function &t0 = cell.prog.threads[0];
    // Move the then-block's redefinition copy into the entry block's
    // image (above the branch), keeping the CFG structurally valid.
    Found c = findInstr(t0, [&](const Instr &i) {
        return i.op == Opcode::Const && i.origin != kNoInstr &&
               cell.f->instr(i.origin).block != cell.f->entry();
    });
    ASSERT_NE(c.id, kNoInstr);
    auto &from = t0.block(c.block).instrs();
    from.erase(from.begin() + c.pos);
    BlockId entry = t0.entry();
    auto &to = t0.block(entry).instrs();
    to.insert(to.begin(), c.id);
    t0.instr(c.id).block = entry;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::InstrWrongBlock))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, NonRetThreadDeclaresLiveOuts)
{
    Cell cell = twoProducerCell();
    cell.prog.threads[0].setLiveOuts({0}); // t1 owns the Ret
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::InterfaceMismatch))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, DuplicatedFlagClearedIsWarning)
{
    Cell cell = conditionalCell();
    Function &t1 = cell.prog.threads[1];
    Found br = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::Br;
    });
    ASSERT_NE(br.id, kNoInstr);
    ASSERT_TRUE(t1.instr(br.id).duplicated);
    t1.instr(br.id).duplicated = false;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::DupFlagWrong)) << res.render();
    // Stats hygiene only: still semantically correct code.
    EXPECT_TRUE(res.ok()) << res.render();
    EXPECT_GE(res.warnings(), 1);
}

TEST(MtVerifyMutation, TerminatorOriginLost)
{
    Cell cell = twoProducerCell();
    Function &t1 = cell.prog.threads[1];
    InstrId term = t1.block(t1.entry()).terminator();
    ASSERT_NE(term, kNoInstr);
    t1.instr(term).origin = kNoInstr;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::BlockMapBroken)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, StructurallyInvalidThread)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    Found mul = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Mul;
    });
    ASSERT_NE(mul.id, kNoInstr);
    t0.instr(mul.id).dst = t0.numRegs() + 5;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::Structural)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, IntraThreadCopiesReordered)
{
    Cell cell = twoProducerCell();
    Function &t0 = cell.prog.threads[0];
    // The Const feeding a = x + 1 must stay before the Add.
    Found k = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Const;
    });
    Found add = findInstr(t0, [](const Instr &i) {
        return i.op == Opcode::Add;
    });
    ASSERT_NE(k.id, kNoInstr);
    ASSERT_NE(add.id, kNoInstr);
    ASSERT_EQ(k.block, add.block);
    auto &list = t0.block(k.block).instrs();
    std::swap(list[k.pos], list[add.pos]);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::DepIntraThreadOrder))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, ControlArcWithoutBranchCopy)
{
    Cell cell = controlFreeCell();
    ASSERT_TRUE(cell.verify().diags.empty());
    // Pretend the join's add is control-dependent on the branch: t1
    // would then need a copy of it, which it does not have.
    InstrId br = cell.f->block(cell.f->entry()).terminator();
    ASSERT_TRUE(cell.f->instr(br).isBranch());
    InstrId victim = kNoInstr;
    for (InstrId i = 0; i < cell.f->numInstrs(); ++i)
        if (cell.f->instr(i).op == Opcode::Add &&
            cell.part.threadOf(i) == 1)
            victim = i;
    ASSERT_NE(victim, kNoInstr);
    cell.pdg->appendArc(
        {.src = br, .dst = victim, .kind = DepKind::Control});
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::ControlUncovered))
        << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyMutation, PlanWitnessLosesItsPoints)
{
    Cell cell = twoProducerCell();
    // Clearing a placement's points makes the cross-thread arc
    // uncovered (and the still-emitted comm unjustified).
    ASSERT_FALSE(cell.plan.placements.empty());
    cell.plan.placements[0].points.clear();
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::DepUncovered)) << res.render();
    EXPECT_TRUE(hasCode(res, MtvCode::ExtraComm)) << res.render();
    EXPECT_FALSE(res.ok());
}

// ---------------------------------------------------------------------
// Theorem 4: happens-before race freedom (hb.hpp). One injected bug
// per code, plus clean runs over generated workloads.
// ---------------------------------------------------------------------

TEST(MtVerifyHb, DroppedSyncProduceIsDataRace)
{
    Cell cell = memorySyncCell();
    ASSERT_TRUE(cell.verify().diags.empty());
    // Without the produce.sync the store and the cross-thread load
    // share no sync chain at all: a data race, not just a plan
    //-fidelity gap.
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::ProduceSync;
            }));
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::HbDataRace)) << res.render();
    EXPECT_FALSE(hasCode(res, MtvCode::HbSyncWrongPath))
        << res.render();
    EXPECT_FALSE(res.ok());
}

/** The happens-before obligations come from the Pdg's MemDep list,
 *  not from its arcs: with every memory arc stripped, the race is
 *  still found; with the list emptied as well, nothing is left to
 *  prove. */
TEST(MtVerifyHb, StrippedMemoryArcsStillYieldDataRace)
{
    Cell cell = memorySyncCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::ProduceSync;
            }));
    ASSERT_TRUE(hasCode(cell.verify(), MtvCode::HbDataRace));

    auto stripped = std::make_unique<Pdg>(*cell.f);
    int mem_arcs = 0;
    for (const PdgArc &arc : cell.pdg->arcs()) {
        if (arc.kind == DepKind::Memory)
            ++mem_arcs;
        else
            stripped->appendArc(arc);
    }
    ASSERT_GT(mem_arcs, 0);
    ASSERT_FALSE(cell.pdg->memDeps().empty());
    stripped->setMemDeps(cell.pdg->memDeps());
    cell.pdg = std::move(stripped);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::HbDataRace)) << res.render();

    cell.pdg->setMemDeps({});
    res = cell.verify();
    EXPECT_FALSE(hasCode(res, MtvCode::HbDataRace)) << res.render();
}

TEST(MtVerifyHb, ConsumeMovedPastLoadIsSyncWrongPath)
{
    Cell cell = memorySyncCell();
    // The sync chain still exists (produce.sync matches
    // consume.sync), but the load now retires before the token
    // arrives, so the chain no longer orders the conflicting pair.
    Function &t1 = cell.prog.threads[1];
    Found cs = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::ConsumeSync;
    });
    Found ld = findInstr(t1, [](const Instr &i) {
        return i.op == Opcode::Load;
    });
    ASSERT_NE(cs.id, kNoInstr);
    ASSERT_NE(ld.id, kNoInstr);
    ASSERT_EQ(cs.block, ld.block);
    ASSERT_LT(cs.pos, ld.pos);
    auto &list = t1.block(cs.block).instrs();
    std::swap(list[cs.pos], list[ld.pos]);
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::HbSyncWrongPath))
        << res.render();
    EXPECT_FALSE(hasCode(res, MtvCode::HbDataRace)) << res.render();
    EXPECT_FALSE(res.ok());
}

TEST(MtVerifyHb, SyncOrderingNothingIsRedundantWarning)
{
    Cell cell = twoProducerCell();
    // Graft a memory-sync placement onto a cell with no memory
    // operations at all, and emit its token pair faithfully: every
    // theorem holds, but the sync orders nothing.
    BlockId bb = cell.f->entry();
    int pi = static_cast<int>(cell.plan.placements.size());
    cell.plan.placements.push_back({.kind = CommKind::MemorySync,
                                    .src_thread = 0,
                                    .dst_thread = 1,
                                    .points = {{bb, 0}}});
    Function &t0 = cell.prog.threads[0];
    Function &t1 = cell.prog.threads[1];
    t0.insertAt(t0.entry(), 0,
                {.op = Opcode::ProduceSync,
                 .queue = static_cast<QueueId>(pi)});
    t1.insertAt(t1.entry(), 0,
                {.op = Opcode::ConsumeSync,
                 .queue = static_cast<QueueId>(pi)});
    cell.prog.num_queues = pi + 1;
    auto res = cell.verify();
    EXPECT_TRUE(hasCode(res, MtvCode::HbRedundantSync))
        << res.render();
    EXPECT_TRUE(res.ok()) << res.render(); // warning, not error
    EXPECT_EQ(res.errors(), 0);
}

TEST(MtVerifyHb, SkippableViaCheckHbFlag)
{
    Cell cell = memorySyncCell();
    Function &t0 = cell.prog.threads[0];
    eraseAt(t0, findInstr(t0, [](const Instr &i) {
                return i.op == Opcode::ProduceSync;
            }));
    MtVerifyInput in = cell.input();
    in.check_hb = false;
    auto res = verifyMtProgram(in);
    EXPECT_FALSE(hasCode(res, MtvCode::HbDataRace)) << res.render();
    EXPECT_EQ(res.hb_pairs, 0);
    // The plan-fidelity gap is still an error either way.
    EXPECT_FALSE(res.ok());
}

/** Generated workloads, both schedulers: zero HB findings. (Both
 *  partitioners keep loop-carried alias classes in one thread, so
 *  these cells mostly discharge trivially; the built-in workload
 *  matrix above is what exercises nonzero proof obligations.) */
TEST(MtVerifyHb, GeneratedCorpusRaceFree)
{
    for (uint64_t seed : {11u, 23u, 47u}) {
        Workload w = generateWorkload(seed);
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            PipelineOptions po;
            po.scheduler = sched;
            po.simulate = false;
            po.verify_mt = false; // run the verifier ourselves
            PipelineContext ctx(w, po);
            PassManager::codegenPipeline().run(ctx);
            auto res = verifyMtProgram(
                {.orig = &ctx.ir->func,
                 .pdg = &ctx.pdg->pdg,
                 .partition = &ctx.partition->partition,
                 .plan = &ctx.plan->plan,
                 .queue_of = &ctx.prog->queue_of,
                 .prog = &ctx.prog->prog});
            EXPECT_TRUE(res.diags.empty())
                << ctx.cellId() << "\n"
                << res.render();
        }
    }
}

/** One random drop, duplicate, kind retag, queue retag or move of a
 *  produce/consume op somewhere in @p prog. */
void
mutateCommOp(MtProgram &prog, Rng &rng)
{
    struct Site
    {
        int thread;
        BlockId block;
        int pos;
    };
    std::vector<Site> sites;
    for (int t = 0; t < static_cast<int>(prog.threads.size()); ++t) {
        const Function &f = prog.threads[t];
        for (BlockId b = 0; b < f.numBlocks(); ++b) {
            const auto &list = f.block(b).instrs();
            for (int p = 0; p < static_cast<int>(list.size()); ++p)
                if (f.instr(list[p]).isCommunication())
                    sites.push_back({t, b, p});
        }
    }
    if (sites.empty())
        return;
    Site at = sites[rng.nextBelow(sites.size())];
    Function &f = prog.threads[at.thread];
    auto &list = f.block(at.block).instrs();
    InstrId id = list[at.pos];
    switch (rng.nextBelow(5)) {
      case 0: // drop
        list.erase(list.begin() + at.pos);
        break;
      case 4: { // move to the top of a random block of the same thread
        list.erase(list.begin() + at.pos);
        BlockId to = static_cast<BlockId>(rng.nextBelow(f.numBlocks()));
        auto &dest = f.block(to).instrs();
        dest.insert(dest.begin(), id);
        f.instr(id).block = to;
        break;
      }
      case 1: // duplicate in place
        f.insertAt(at.block, at.pos, f.instr(id));
        break;
      case 2: { // retag the token kind
        Opcode &op = f.instr(id).op;
        op = op == Opcode::Produce       ? Opcode::ProduceSync
             : op == Opcode::ProduceSync ? Opcode::Produce
             : op == Opcode::Consume     ? Opcode::ConsumeSync
                                         : Opcode::Consume;
        break;
      }
      default: // retag the queue (num_queues itself is out of range)
        f.instr(id).queue =
            static_cast<QueueId>(rng.nextBelow(prog.num_queues + 1));
        break;
    }
}

/** Randomized comm-op mutations of generated cells, with and without
 *  queue multiplexing: the sparse balance pass must report what the
 *  per-queue oracle reports on every mutant. */
TEST(MtVerifyBalance, RandomCommMutationsMatchOracle)
{
    Rng rng(4242);
    int mutants = 0, findings = 0;
    for (uint64_t seed : {5u, 11u, 23u, 47u}) {
        Workload w = generateWorkload(seed);
        for (Scheduler sched : {Scheduler::Dswp, Scheduler::Gremio}) {
            for (int max_queues : {0, 4}) {
                PipelineOptions po;
                po.scheduler = sched;
                po.use_coco = true;
                po.max_queues = max_queues;
                po.simulate = false;
                po.verify_mt = false;
                PipelineContext ctx(w, po);
                PassManager::codegenPipeline().run(ctx);
                const Function &orig = ctx.ir->func;
                const MtProgram &base = ctx.prog->prog;
                EXPECT_EQ(expectBalanceMatchesOracle(orig, base,
                                                     ctx.cellId()),
                          0);
                for (int k = 0; k < 16; ++k) {
                    MtProgram prog = base;
                    int edits = 1 + static_cast<int>(rng.nextBelow(2));
                    for (int e = 0; e < edits; ++e)
                        mutateCommOp(prog, rng);
                    findings += expectBalanceMatchesOracle(
                        orig, prog,
                        ctx.cellId() + " mutant " + std::to_string(k));
                    ++mutants;
                }
            }
        }
    }
    EXPECT_EQ(mutants, 4 * 2 * 2 * 16);
    EXPECT_GT(findings, 0);
}

// ---------------------------------------------------------------------
// Plan-validation diagnostics (coco/validate.cpp shares the code
// space) and diag utilities.
// ---------------------------------------------------------------------

TEST(MtVerifyPlan, InvalidPointAndUncoveredArcCodes)
{
    Cell cell = twoProducerCell();
    auto pdom = DominatorTree::postDominators(*cell.f);
    ControlDependence cd(*cell.f, pdom);

    CommPlan bad = cell.plan;
    ASSERT_FALSE(bad.placements.empty());
    bad.placements[0].points = {{0, 999}};
    auto diags =
        validatePlanDiags(*cell.f, *cell.pdg, cell.part, cd, bad);
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].code, MtvCode::PlanInvalidPoint);

    CommPlan uncovered = cell.plan;
    uncovered.placements[0].points.clear();
    diags = validatePlanDiags(*cell.f, *cell.pdg, cell.part, cd,
                              uncovered);
    bool found = false;
    for (const MtvDiag &d : diags)
        found |= d.code == MtvCode::PlanUncoveredArc;
    EXPECT_TRUE(found);
}

TEST(MtVerifyDiag, RenderAndDedupe)
{
    MtvDiag d{.code = MtvCode::DepUncovered,
              .thread = 1,
              .block = 3,
              .pos = 2,
              .instr = 17,
              .queue = 5,
              .message = "msg"};
    EXPECT_EQ(renderDiag(d), "[error dep-uncovered] T1 B3:2 i17 q5: msg");

    MtvDiag w{.code = MtvCode::DupFlagWrong,
              .severity = MtvSeverity::Warning,
              .message = "w"};
    EXPECT_EQ(renderDiag(w), "[warning dup-flag-wrong]: w");

    std::vector<MtvDiag> diags{d, w, d, d, w};
    dedupeDiags(diags);
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0], d);
    EXPECT_EQ(diags[1], w);
    EXPECT_EQ(countErrors(diags), 1);
}

} // namespace
} // namespace gmt
