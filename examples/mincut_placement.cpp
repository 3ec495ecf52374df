/**
 * @file
 * Walk-through of the paper's Figure 4: how COCO's min-cut moves a
 * register communication out of a loop.
 *
 * Two back-to-back loops are split across two threads; loop 1 defines
 * r1 every iteration, loop 2 only ever uses the final value. The
 * example prints the flow-graph reasoning (liveness region, safety,
 * candidate cut costs), both placements, and the generated code so
 * the effect is visible instruction by instruction.
 */

#include <iostream>

#include "analysis/control_dep.hpp"
#include "analysis/dominators.hpp"
#include "analysis/edge_profile.hpp"
#include "coco/coco.hpp"
#include "driver/pass_manager.hpp"
#include "ir/builder.hpp"
#include "ir/edge_split.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "mtcg/mtcg.hpp"
#include "pdg/pdg_builder.hpp"
#include "runtime/interpreter.hpp"

using namespace gmt;

int
main()
{
    // Paper Figure 4(a): loop 1 (blocks B1-B2) then loop 2 (B3-B4).
    FunctionBuilder b("figure4");
    Reg n = b.param();
    BlockId l1 = b.newBlock("B2");
    BlockId pre = b.newBlock("B3");
    BlockId l2 = b.newBlock("B4");
    BlockId out = b.newBlock("B5");

    b.setBlock(l1);
    Reg i = b.func().newReg();
    Reg r1 = b.func().newReg();
    b.addInto(r1, r1, i);       // B: r1 = f(r1, i), every iteration
    Reg one = b.constI(1);
    b.addInto(i, i, one);
    Reg c1 = b.cmpLt(i, n);
    b.br(c1, l1, pre);          // C

    b.setBlock(pre);
    Reg j = b.constI(0);        // D
    b.jmp(l2);

    b.setBlock(l2);
    Reg acc = b.func().newReg();
    b.addInto(acc, acc, r1);    // E: uses only the final r1
    Reg one2 = b.constI(1);
    b.addInto(j, j, one2);
    Reg c2 = b.cmpLt(j, n);
    b.br(c2, l2, out);          // F

    b.setBlock(out);
    b.ret({acc});               // G
    Function f = b.finish();
    splitCriticalEdges(f);
    verifyOrDie(f);
    std::cout << "=== Original (Figure 4(a)) ===\n"
              << functionToString(f);

    // Partition: T_s = loop 1, T_t = the rest (paper's split).
    ThreadPartition partition;
    partition.num_threads = 2;
    partition.assign.assign(f.numInstrs(), 0);
    for (InstrId k = 0; k < f.numInstrs(); ++k) {
        if (f.instr(k).block != l1)
            partition.assign[k] = 1;
    }

    MemoryImage mem;
    auto run = interpret(f, {10}, mem);
    auto profile = EdgeProfile::fromRun(f, run.profile);
    auto pdom = DominatorTree::postDominators(f);
    ControlDependence cd(f, pdom);
    Pdg pdg = buildPdg(f, cd);

    std::cout << "\nEdge profile: loop 1 body runs "
              << profile.blockWeight(l1) << "x, the point after it "
              << profile.blockWeight(pre)
              << "x — the min-cut prefers the cold point.\n";

    // MTCG placement: r1 produced after its def, inside loop 1.
    CommPlan mtcg_plan = defaultMtcgPlan(f, pdg, partition, cd);
    MtProgram mtcg_prog = runMtcg(f, pdg, partition, mtcg_plan, cd);
    MemoryImage m1;
    auto mtcg_run = interpretMt(mtcg_prog, {10}, m1);
    std::cout << "\nMTCG: " << mtcg_run.totalCommunication()
              << " dynamic communication instructions, "
              << mtcg_run.stats[1].duplicated_branches
              << " replicated-branch executions in thread 2\n";

    // COCO placement: min-cut moves the produce past the loop.
    auto coco = cocoOptimize(f, pdg, partition,
                             safetyPerThread(f, partition), cd, profile);
    for (const auto &pl : coco.plan.placements) {
        if (pl.kind != CommKind::RegisterData)
            continue;
        std::cout << "COCO places r" << pl.reg << " at:";
        for (const auto &pt : pl.points)
            std::cout << " " << f.block(pt.block).label() << ":"
                      << pt.pos << " (weight "
                      << profile.pointWeight(pt) << ")";
        std::cout << "\n";
    }
    MtProgram coco_prog = runMtcg(f, pdg, partition, coco.plan, cd);
    MemoryImage m2;
    auto coco_run = interpretMt(coco_prog, {10}, m2);
    std::cout << "COCO: " << coco_run.totalCommunication()
              << " dynamic communication instructions, "
              << coco_run.stats[1].duplicated_branches
              << " replicated-branch executions in thread 2\n";

    std::cout << "\n=== Thread 2 under MTCG (contains loop 1) ===\n"
              << functionToString(mtcg_prog.threads[1]);
    std::cout << "\n=== Thread 2 under COCO (loop 1 gone) ===\n"
              << functionToString(coco_prog.threads[1]);

    // The same kernel end to end through the staged pass manager
    // (GREMIO picks its own partition, so the exact split differs
    // from the hand partition above, but the COCO effect is the
    // same: communication sinks out of the loop).
    Workload w;
    w.name = "figure4";
    w.function_name = f.name();
    w.func = f;
    w.train_args = {10};
    w.ref_args = {10};

    PipelineOptions opts;
    opts.scheduler = Scheduler::Gremio;
    opts.use_coco = true;
    PipelineContext ctx(w, opts);
    PassManager::standardPipeline().run(ctx);
    std::cout << "\n=== figure4 through the standard pipeline ===\n"
              << "communication: " << ctx.result.communication()
              << " dynamic instructions, speedup "
              << ctx.result.speedup() << "x; passes:";
    for (const PassStats &ps : ctx.pass_stats)
        std::cout << " " << ps.pass;
    std::cout << "\n";
    return 0;
}
