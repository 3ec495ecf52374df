/**
 * @file
 * Reproduces paper Figure 7: "Relative dynamic communication /
 * synchronization instructions after applying COCO" — per benchmark
 * and scheduler, COCO's dynamic communication as a percentage of the
 * original MTCG placement's (100% = unchanged), with the averages the
 * paper quotes (GREMIO -34.4%, DSWP -23.8%, ks+GREMIO -73.7%) and the
 * memory-synchronization removal for the benchmarks that have
 * inter-thread memory dependences (paper: >99% removed).
 *
 * Cells run through the parallel, artifact-cached experiment runner
 * (see --help for the shared bench flags, e.g. --stats fig7.jsonl).
 */

#include <iostream>

#include "driver/bench_harness.hpp"
#include "driver/report.hpp"
#include "support/table.hpp"
#include "workloads/workload.hpp"

using namespace gmt;

int
main(int argc, char **argv)
{
    BenchHarness harness(argc, argv);
    const auto workloads = harness.workloads();

    // Grid: per workload, (GREMIO, DSWP) x (MTCG, COCO). The COCO
    // cell shares every artifact through `partition` with its MTCG
    // sibling, so the cache computes those stages once.
    std::vector<ExperimentCell> cells;
    for (const Workload &w : workloads) {
        for (Scheduler sched : {Scheduler::Gremio, Scheduler::Dswp}) {
            for (bool coco : {false, true}) {
                PipelineOptions opts;
                opts.scheduler = sched;
                opts.use_coco = coco;
                opts.simulate = false;
                cells.push_back({w, opts});
            }
        }
    }
    const auto results = harness.runAll(cells);

    Table t("Figure 7: dynamic communication after COCO, relative to "
            "MTCG (100% = unchanged)");
    t.setHeader({"Benchmark", "GREMIO", "DSWP", "GREMIO mem syncs",
                 "DSWP mem syncs"});

    std::vector<double> gremio_rel, dswp_rel;
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        std::vector<std::string> row{workloads[wi].name};
        std::vector<std::string> mem_cols;
        for (int si = 0; si < 2; ++si) {
            const PipelineResult &mtcg = results[wi * 4 + si * 2];
            const PipelineResult &coco = results[wi * 4 + si * 2 + 1];

            double rel = 100.0 * relativeComm(coco, mtcg);
            (si == 0 ? gremio_rel : dswp_rel).push_back(rel / 100.0);
            row.push_back(Table::fmt(rel, 1) + "%");

            if (mtcg.mem_sync > 0) {
                double removed =
                    100.0 *
                    (1.0 - static_cast<double>(coco.mem_sync) /
                               static_cast<double>(mtcg.mem_sync));
                std::string col = "-";
                col += Table::fmt(removed, 1);
                col += '%';
                mem_cols.push_back(col);
            } else {
                mem_cols.push_back("(none)");
            }
        }
        row.push_back(mem_cols[0]);
        row.push_back(mem_cols[1]);
        t.addRow(row);
    }
    t.addSeparator();
    t.addRow({"average",
              Table::fmt(100.0 * mean(gremio_rel), 1) + "%",
              Table::fmt(100.0 * mean(dswp_rel), 1) + "%", "", ""});
    t.print(std::cout);

    std::cout << "\nPaper reference: average 65.6% for GREMIO "
                 "(-34.4%), 76.2% for DSWP (-23.8%); best case ks + "
                 "GREMIO at 26.3% (-73.7%); >99% of memory "
                 "synchronizations removed where present; COCO never "
                 "increases communication.\n";
    return 0;
}
