/**
 * @file
 * Freezes the gen-ladder inputs of the pipeline benchmark.
 *
 * Selection rule: generate cells with GenOptions{max_depth 4,
 * max_stmts 12} (every other knob at its default). For each rung size
 * (500, 1500, 3000, 5000 static instructions) take the lowest seed
 * whose cell has a static instruction count within +-25% of the rung
 * and whose single-threaded reference run completes on both the train
 * and the ref input. Each in-window seed is reported on stderr with its
 * size and whether it was taken or why it was rejected.
 *
 *   gmt_freeze_ladder OUT_DIR [MAX_SEED]
 *
 * writes OUT_DIR/ladder-<rung>.gmt for each rung and prints a header
 * comment and one manifest line per taken cell:
 *
 *   <file> <fnv1a64 of the file bytes> <seed> <instrs> <blocks>
 *
 * which is the format of inputs/ladder/MANIFEST. Exits 1 if a rung has
 * no seed up to MAX_SEED (default 64).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/interpreter.hpp"
#include "support/error.hpp"
#include "workloads/generate.hpp"
#include "workloads/serialize.hpp"

using namespace gmt;

namespace
{

/** Run @p w single-threaded on one input; empty string = completed. */
std::string
stRunError(const Workload &w, bool ref)
{
    try {
        MemoryImage mem;
        mem.alloc(w.mem_cells);
        if (w.fill)
            w.fill(mem, ref);
        interpret(w.func, ref ? w.ref_args : w.train_args, mem);
        return "";
    } catch (const std::exception &e) {
        return e.what();
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s OUT_DIR [MAX_SEED]\n", argv[0]);
        return 2;
    }
    const std::string out_dir = argv[1];
    const uint64_t max_seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                       : 64;
    GenOptions opts;
    opts.max_depth = 4;
    opts.max_stmts = 12;

    const int rungs[] = {500, 1500, 3000, 5000};
    std::vector<std::string> manifest;
    for (int rung : rungs) {
        const double lo = rung * 0.75, hi = rung * 1.25;
        bool taken = false;
        for (uint64_t seed = 1; seed <= max_seed && !taken; ++seed) {
            Workload w = generateWorkload(seed, opts);
            const int instrs = w.func.numInstrs();
            if (instrs < lo || instrs > hi)
                continue; // off-rung seeds are not listed
            std::string err = stRunError(w, /*ref=*/false);
            if (err.empty())
                err = stRunError(w, /*ref=*/true);
            if (!err.empty()) {
                std::fprintf(stderr,
                             "rung %d: seed %llu (%d instrs) rejected: "
                             "%s\n",
                             rung, static_cast<unsigned long long>(seed),
                             instrs, err.c_str());
                continue;
            }
            const std::string file =
                "ladder-" + std::to_string(rung) + ".gmt";
            saveWorkloadFile(w, out_dir + "/" + file);
            const std::string bytes = readFile(out_dir + "/" + file);
            std::fprintf(stderr, "rung %d: seed %llu (%d instrs) taken\n",
                         rung, static_cast<unsigned long long>(seed),
                         instrs);
            manifest.push_back(file + " " + hexDigest(fnv1a64(bytes)) +
                               " " + std::to_string(seed) + " " +
                               std::to_string(instrs) + " " +
                               std::to_string(w.func.numBlocks()));
            taken = true;
        }
        if (!taken) {
            std::fprintf(stderr, "rung %d: no seed up to %llu\n", rung,
                         static_cast<unsigned long long>(max_seed));
            return 1;
        }
    }
    std::printf("# gen-ladder cells: GenOptions{max_depth 4, max_stmts 12}\n"
                "# file fnv1a64-of-bytes seed instrs blocks\n");
    for (const std::string &line : manifest)
        std::printf("%s\n", line.c_str());
    return 0;
}
