/**
 * @file
 * Pipeline benchmark for gmtsched: pushes a workload's fixed cell set
 * through PassManager::standardPipeline() round after round, from one
 * thread, and reports drift-calibrated compile cost plus exact
 * schedule-quality counts. See ../README.md for the workloads, the
 * metrics and why the round time is calibrated.
 *
 *   gmt_perfbench --root DIR --workload NAME --seed N --seconds S
 *                 --trace 0|1 [--trace-out FILE]
 *
 * The last line of stdout is the result object
 * {"correct", "attempted", "failed", "metrics"}; lines before it start
 * with '#' and are for readers. Exit codes: 0 ok, 1 a correctness or
 * determinism check failed (result still printed), 2 bad usage or
 * missing inputs (nothing printed).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "calib.hpp"
#include "driver/experiment.hpp"
#include "driver/pass_manager.hpp"
#include "obs/metrics.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/mt_interpreter.hpp"
#include "workloads/serialize.hpp"

using namespace gmt;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace
{

// ---------------------------------------------------------------------------
// Small helpers

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Wall time of @p iterations of the calibration kernel, in ms. */
double
kernelMs(int iterations)
{
    static volatile uint64_t sink = 0;
    auto t0 = Clock::now();
    sink = sink + perfbench::calibrationKernel(iterations);
    return msSince(t0);
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "gmt_perfbench: %s\n", msg.c_str());
    std::exit(2);
}

/** Least-squares slope of log(y) against log(x) over positive pairs. */
double
logLogSlope(const std::vector<std::pair<double, double>> &xy)
{
    double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const auto &[x, y] : xy) {
        if (x <= 0 || y <= 0)
            continue;
        const double lx = std::log(x), ly = std::log(y);
        n += 1;
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    const double den = n * sxx - sx * sx;
    return n >= 2 && den > 0 ? (n * sxy - sx * sy) / den : 0.0;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out at exit.

struct Span
{
    int id = 0;
    int parent = -1;
    std::string name;
    std::string layer; ///< empty for structural spans (round, cell)
    int64_t start_ns = 0;
    int64_t end_ns = 0;

    double ms() const { return (end_ns - start_ns) / 1e6; }
};

class Tracer
{
  public:
    bool on = false;

    int
    open(std::string name, std::string layer, int parent)
    {
        if (!on)
            return -1;
        Span s;
        s.id = static_cast<int>(spans_.size());
        s.parent = parent;
        s.name = std::move(name);
        s.layer = std::move(layer);
        s.start_ns = now();
        spans_.push_back(std::move(s));
        return spans_.back().id;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[id].end_ns = now();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
};

/** src/ module that owns each standard pass. */
std::string
layerOfPass(const std::string &pass)
{
    static const std::map<std::string, std::string> kPassLayer = {
        {"build-ir", "ir"},          {"edge-split", "ir"},
        {"verify", "ir"},            {"profile", "runtime.profile"},
        {"pdg", "pdg"},              {"partition", "partition"},
        {"placement", "coco"},       {"mtcg", "mtcg"},
        {"queue-alloc", "mtcg"},     {"verify-mt", "mtverify"},
        {"mt-run", "runtime.mt_run"}, {"sim", "sim"},
        {"autotune", "autotune"},
    };
    auto it = kPassLayer.find(pass);
    // obs-profile / obs-provenance are off in the default pipeline and
    // return at once; their bookkeeping is driver time.
    return it == kPassLayer.end() ? "driver" : it->second;
}

/** Layers reported by the traced run, in pipeline order. */
const std::vector<std::string> kLayers = {
    "ir",       "runtime.profile", "pdg",           "partition",
    "coco",     "mtcg",            "mtverify",      "runtime.mt_run",
    "sim",      "autotune",        "driver",
};

/** MetricsRegistry counters sampled at pass boundaries. */
const std::vector<std::string> kCounters = {
    "coco.problems",      "coco.solves",       "coco.augmenting_paths",
    "coco.warm_starts",   "coco.cold_rebuilds", "mtinterp.dyn_instrs",
    "sim.cycles",         "sim.skipped_cycles", "autotune.iterations",
    "autotune.moves_accepted", "autotune.moves_rejected",
};

// ---------------------------------------------------------------------------
// Workloads

struct Options
{
    fs::path root = ".";
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
};

struct Inputs
{
    std::vector<fs::path> files;
    uintmax_t bytes = 0;
};

/** The golden corpus: every .gmt file in workloads/ir, by filename. */
Inputs
corpusInputs(const fs::path &root)
{
    Inputs in;
    const fs::path dir = root / "workloads" / "ir";
    if (!fs::is_directory(dir))
        usageError("corpus directory missing: " + dir.string());
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".gmt")
            in.files.push_back(e.path());
    std::sort(in.files.begin(), in.files.end());
    if (in.files.empty())
        usageError("no .gmt cells in " + dir.string());
    for (const auto &f : in.files)
        in.bytes += fs::file_size(f);
    return in;
}

/**
 * The frozen gen-ladder cells, each checked against the FNV-1a digest
 * of its bytes recorded in the MANIFEST.
 */
Inputs
ladderInputs(const fs::path &root)
{
    Inputs in;
    const fs::path dir = root / "perfbench" / "inputs" / "ladder";
    std::ifstream manifest(dir / "MANIFEST");
    if (!manifest)
        usageError("ladder manifest missing in " + dir.string());
    std::string line;
    while (std::getline(manifest, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string file, digest;
        ls >> file >> digest;
        const fs::path path = dir / file;
        if (!fs::exists(path))
            usageError("ladder cell missing: " + path.string());
        const std::string got = hexDigest(fnv1a64(readFile(path)));
        if (got != digest)
            usageError("ladder cell " + file + " has digest " + got +
                       ", manifest says " + digest);
        in.files.push_back(path);
        in.bytes += fs::file_size(path);
    }
    if (in.files.empty())
        usageError("empty ladder manifest in " + dir.string());
    return in;
}

std::vector<PipelineOptions>
configsFor(const std::string &workload)
{
    // autotune-matrix tunes the COCO cells only.
    const bool autotune = workload == "autotune-matrix";
    std::vector<PipelineOptions> out;
    for (Scheduler s : {Scheduler::Dswp, Scheduler::Gremio}) {
        for (bool coco : {false, true}) {
            if (autotune && !coco)
                continue;
            PipelineOptions o;
            o.scheduler = s;
            o.use_coco = coco;
            o.autotune = autotune;
            o.coco_jobs = 1;
            out.push_back(o);
        }
    }
    return out;
}

std::string
cellName(const ExperimentCell &c)
{
    std::string id = c.workload.name + "/" + schedulerName(c.opts.scheduler);
    if (c.opts.use_coco)
        id += "+COCO";
    if (c.opts.autotune)
        id += "+AT";
    return id;
}

// ---------------------------------------------------------------------------
// Independent output check

struct StTruth
{
    std::vector<int64_t> live_outs;
    MemoryImage mem;
};

MemoryImage
refMemory(const Workload &w)
{
    MemoryImage mem;
    mem.alloc(w.mem_cells);
    if (w.fill)
        w.fill(mem, /*ref=*/true);
    return mem;
}

/**
 * Run the emitted program on the MT interpreter and compare it with
 * the single-threaded interpreter on the original function: live-outs,
 * final memory, drained queues, and the dynamic counts the pipeline
 * reported. Returns an empty string when everything matches.
 */
std::string
checkCell(const Workload &w, const StTruth &st, const PipelineContext &ctx)
{
    if (!ctx.prog)
        return "no emitted program";
    MemoryImage mem = refMemory(w);
    MtRunResult mt = interpretMt(ctx.prog->prog, w.ref_args, mem);
    if (mt.deadlock)
        return "MT run deadlocked";
    if (!mt.queues_drained)
        return "MT run left queues non-empty";
    if (mt.live_outs != st.live_outs)
        return "live-outs differ from the single-threaded run";
    if (!(mem == st.mem))
        return "final memory differs from the single-threaded run";
    uint64_t comp = 0, dup = 0, reg = 0, sync = 0;
    for (const ThreadStats &t : mt.stats) {
        comp += t.computation;
        dup += t.duplicated_branches;
        reg += t.produces + t.consumes;
        sync += t.produce_syncs + t.consume_syncs;
    }
    const PipelineResult &r = ctx.result;
    if (comp != r.computation || dup != r.duplicated_branches ||
        reg != r.reg_comm || sync != r.mem_sync)
        return "dynamic counts differ from the pipeline's result";
    return "";
}

// ---------------------------------------------------------------------------
// Output

class ResultJson
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 unit + "\"}";
    }

    std::string
    render(bool correct, uint64_t attempted, uint64_t failed) const
    {
        return std::string("{\"correct\": ") + (correct ? "true" : "false") +
               ", \"attempted\": " + std::to_string(attempted) +
               ", \"failed\": " + std::to_string(failed) +
               ", \"metrics\": {" + body_ + "}}";
    }

  private:
    std::string body_;
};

// ---------------------------------------------------------------------------
// Rounds

struct RoundOut
{
    double ms = 0;        ///< the cells' wall time, slices excluded
    double kernel_ms = 0; ///< slices' time scaled to one full kernel
    double cal = 0;       ///< ms / kernel_ms
    std::vector<std::optional<PipelineResult>> results;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
};

/** Per-cell numbers of one traced round (the size axis). */
struct CellRecord
{
    int64_t instrs = 0, blocks = 0, arcs = 0, queues = 0;
    uint64_t coco_problems = 0, dyn_instrs = 0;
    std::map<std::string, double> self_ms; ///< by layer
};

struct TracedRound
{
    int span = -1;
    std::vector<CellRecord> cells;
    std::map<std::string, uint64_t> counters; ///< "<layer>:<counter>"
    std::map<std::string, int64_t> pass_counters; ///< summed PassStats
};

class Bench
{
  public:
    explicit Bench(Options o) : opt_(std::move(o)) { tracer_.on = opt_.trace; }

    int run();

  private:
    void setup();
    void setupSample();
    bool verify();
    RoundOut round(TracedRound *tr);
    std::optional<PipelineResult> tracedCell(size_t i, ArtifactCache &cache);
    PassManager wrappedPipeline();
    std::string checkSpans(const TracedRound &tr) const;
    void reportLayers(ResultJson &json,
                      const std::vector<TracedRound> &traced,
                      double cache_hit_ratio, double overhead_cal,
                      double plain_cal);

    Options opt_;
    Tracer tracer_;
    Inputs inputs_;
    std::vector<Workload> workloads_;
    std::vector<std::vector<ExperimentCell>> cells_; ///< one per runAll
    std::vector<size_t> order_;
    std::vector<std::optional<PipelineResult>> truth_;
    std::vector<double> setup_ms_; ///< one input set load per sample
    int setup_reps_ = 1;           ///< input set loads per sample
    uint64_t parse_loads_ = 0;     ///< input set loads, all samples
    uint64_t code_size_ = 0;
    double ms_per_iter_ = 0; ///< kernel speed, sizes the slices
    std::vector<std::string> errors_;
    std::optional<PassManager> traced_pm_;
    TracedRound *current_ = nullptr;   ///< round being traced
    CellRecord *current_cell_ = nullptr;
    int current_cell_span_ = -1;
};

/**
 * One set-up sample: load every input file through the public .gmt
 * parser (which also verifies each function), setup_reps_ times, and
 * record the time of one load of the whole set.
 */
void
Bench::setupSample()
{
    const int sid = tracer_.open("setup", "", -1);
    auto t0 = Clock::now();
    for (int rep = 0; rep < setup_reps_; ++rep) {
        std::vector<Workload> loaded;
        for (const fs::path &f : inputs_.files) {
            const int id = tracer_.open(f.filename().string(),
                                        "workloads.parse", sid);
            loaded.push_back(loadWorkloadFile(f.string()));
            tracer_.close(id);
        }
        workloads_ = std::move(loaded);
        ++parse_loads_;
    }
    setup_ms_.push_back(msSince(t0) / setup_reps_);
    tracer_.close(sid);
}

void
Bench::setup()
{
    if (opt_.workload == "gen-ladder")
        inputs_ = ladderInputs(opt_.root);
    else
        inputs_ = corpusInputs(opt_.root);

    // A sample loads the set often enough to take ~100 ms, so a small
    // input set is not timed in one short burst. More samples are
    // taken between the timed rounds; setup_s is their median.
    setupSample();
    setup_reps_ = std::clamp(
        static_cast<int>(std::ceil(100.0 / std::max(setup_ms_[0], 1e-3))),
        1, 50);
    setup_ms_.clear();
    setupSample();

    for (const Workload &w : workloads_)
        for (const PipelineOptions &o : configsFor(opt_.workload))
            cells_.push_back({ExperimentCell{w, o}});

    // The seed rotates the cell order of every round; the inputs stay
    // fixed, so every count is exact.
    const size_t n = cells_.size();
    for (size_t i = 0; i < n; ++i)
        order_.push_back((i + opt_.seed) % n);
}

/**
 * Untimed pass over every cell: run the pipeline once, check each
 * emitted program against the single-threaded interpreter, and keep
 * the results every timed round must reproduce exactly.
 */
bool
Bench::verify()
{
    ArtifactCache cache;
    const PassManager pm = PassManager::standardPipeline();
    truth_.assign(cells_.size(), std::nullopt);
    bool ok = true;
    std::map<std::string, StTruth> truths;
    for (size_t i = 0; i < cells_.size(); ++i) {
        const ExperimentCell &c = cells_[i][0];
        const Workload &w = c.workload;
        auto it = truths.find(w.name);
        if (it == truths.end()) {
            StTruth t;
            t.mem = refMemory(w);
            t.live_outs = interpret(w.func, w.ref_args, t.mem).live_outs;
            it = truths.emplace(w.name, std::move(t)).first;
        }
        PipelineContext ctx(w, c.opts);
        ctx.cache = &cache;
        try {
            pm.run(ctx);
        } catch (const std::exception &e) {
            std::printf("# cell %s failed: %s\n", cellName(c).c_str(),
                        e.what());
            continue;
        }
        const std::string err = checkCell(w, it->second, ctx);
        if (!err.empty()) {
            errors_.push_back("output check " + cellName(c) + ": " + err);
            ok = false;
        }
        for (const Function &t : ctx.prog->prog.threads)
            code_size_ += static_cast<uint64_t>(t.numInstrs());
        truth_[i] = ctx.result;
    }
    return ok;
}

/**
 * The standard pipeline with every pass re-registered inside a span,
 * sampling the layer counters at its boundaries.
 */
PassManager
Bench::wrappedPipeline()
{
    PassManager pm;
    std::vector<Counter *> counters;
    for (const std::string &name : kCounters)
        counters.push_back(&MetricsRegistry::global().counter(name));
    const PassManager standard = PassManager::standardPipeline();
    for (const PassManager::Pass &p : standard.passes()) {
        const std::string layer = layerOfPass(p.name);
        pm.addPass(p.name, [this, counters, layer, name = p.name,
                            fn = p.run](PipelineContext &ctx,
                                        PassStats &ps) {
            std::vector<uint64_t> before(counters.size());
            for (size_t k = 0; k < counters.size(); ++k)
                before[k] = counters[k]->value();
            const int id = tracer_.open(name, layer, current_cell_span_);
            try {
                fn(ctx, ps);
            } catch (...) {
                tracer_.close(id);
                throw;
            }
            tracer_.close(id);
            TracedRound &tr = *current_;
            CellRecord &cell = *current_cell_;
            cell.self_ms[layer] += tracer_.spans()[id].ms();
            for (size_t k = 0; k < counters.size(); ++k) {
                const uint64_t d = counters[k]->value() - before[k];
                if (d)
                    tr.counters[layer + ":" + kCounters[k]] += d;
                if (name == "placement" && kCounters[k] == "coco.problems")
                    cell.coco_problems += d;
            }
            for (const auto &[cname, v] : ps.counters) {
                tr.pass_counters[name + ":" + cname] += v;
                if (name == "build-ir" && cname == "instrs")
                    cell.instrs = v;
                if (name == "build-ir" && cname == "blocks")
                    cell.blocks = v;
                if (name == "pdg" && cname == "arcs")
                    cell.arcs = v;
                if (name == "queue-alloc" && cname == "queues")
                    cell.queues = v;
            }
        });
    }
    return pm;
}

/** One cell through the wrapped pipeline, inside a cell span. */
std::optional<PipelineResult>
Bench::tracedCell(size_t i, ArtifactCache &cache)
{
    const ExperimentCell &c = cells_[i][0];
    CellRecord &rec = current_->cells[i];
    current_cell_ = &rec;
    current_cell_span_ = tracer_.open(cellName(c), "", current_->span);
    PipelineContext ctx(c.workload, c.opts);
    ctx.cache = &cache;
    std::optional<PipelineResult> result;
    try {
        traced_pm_->run(ctx);
        result = ctx.result;
        rec.dyn_instrs = ctx.result.total();
    } catch (const std::exception &) {
        // counted as a failed cell by the caller
    }
    tracer_.close(current_cell_span_);
    // Driver time: the cell span minus its pass spans.
    double passes = 0;
    for (const auto &[layer, ms] : rec.self_ms)
        passes += ms;
    rec.self_ms["driver"] += tracer_.spans()[current_cell_span_].ms() - passes;
    return result;
}

/**
 * One timed round: every cell once, in the run's order, with a fresh
 * artifact cache. Plain rounds run each cell as its own runAll call on
 * one jobs-1 runner; traced rounds (@p tr set) run the wrapped
 * pipeline. After each cell a calibration slice runs, sized to a
 * quarter of the cell's time, so the kernel samples the host at the
 * moments the cells ran and in the same proportions. The slices are
 * not part of the round's time.
 */
RoundOut
Bench::round(TracedRound *tr)
{
    constexpr double kSliceShare = 0.25;
    constexpr int kMinSliceIters = 2000;

    RoundOut out;
    out.results.assign(cells_.size(), std::nullopt);
    ExperimentRunner runner({.jobs = 1, .use_cache = true});
    ArtifactCache traced_cache;
    if (tr) {
        if (!traced_pm_)
            traced_pm_ = wrappedPipeline();
        tr->cells.assign(cells_.size(), CellRecord{});
        current_ = tr;
        tr->span = tracer_.open("round", "", -1);
    }
    double slice_ms = 0, slice_iters = 0;
    for (size_t i : order_) {
        auto t0 = Clock::now();
        if (tr) {
            out.results[i] = tracedCell(i, traced_cache);
        } else {
            try {
                out.results[i] = runner.runAll(cells_[i]).front();
            } catch (const std::exception &) {
                // counted as a failed cell by the caller
            }
        }
        const double cell_ms = msSince(t0);
        out.ms += cell_ms;

        const int iters = std::max(
            kMinSliceIters,
            static_cast<int>(kSliceShare * cell_ms / ms_per_iter_));
        const int id =
            tracer_.open("slice", "calibration", tr ? tr->span : -1);
        slice_ms += kernelMs(iters);
        slice_iters += iters;
        tracer_.close(id);
    }
    if (tr)
        tracer_.close(tr->span);
    out.kernel_ms = slice_ms / slice_iters * perfbench::kKernelIterations;
    out.cal = out.ms / out.kernel_ms;
    const ArtifactCache::Counters cc =
        tr ? traced_cache.counters() : runner.cache().counters();
    out.cache_hits = cc.hits;
    out.cache_misses = cc.misses;
    return out;
}

/**
 * Spans must nest: every pass span inside its cell span, pass spans of
 * one cell disjoint, so that the layers' self times plus driver time
 * add up to the cell spans.
 */
std::string
Bench::checkSpans(const TracedRound &tr) const
{
    const auto &spans = tracer_.spans();
    std::map<int, std::vector<const Span *>> kids;
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[s.parent].push_back(&s);
    double cells_ms = 0, self_ms = 0;
    size_t checked = 0;
    for (const Span *cell : kids[tr.span]) {
        if (!cell->layer.empty())
            continue; // a calibration slice between cells
        cells_ms += cell->ms();
        checked += 1 + kids[cell->id].size();
        int64_t at = cell->start_ns;
        for (const Span *p : kids[cell->id]) {
            if (p->start_ns < at || p->end_ns > cell->end_ns)
                return "pass span " + p->name + " escapes cell " +
                       cell->name;
            at = p->end_ns;
        }
    }
    for (const CellRecord &c : tr.cells)
        for (const auto &[layer, ms] : c.self_ms)
            self_ms += ms;
    // Timer resolution: 1 ns per span endpoint, summed in ms.
    const double tol = 2e-6 * static_cast<double>(checked + 1);
    if (std::fabs(self_ms - cells_ms) > tol)
        return "layer self times sum to " + std::to_string(self_ms) +
               " ms, cell spans to " + std::to_string(cells_ms) + " ms";
    return "";
}

/**
 * The per-layer metrics of a traced run: self time and share per
 * layer, the counts at the layer boundaries, the growth exponents of
 * the size axis, the tracing overhead, and the per-cell size table.
 */
void
Bench::reportLayers(ResultJson &json, const std::vector<TracedRound> &traced,
                    double cache_hit_ratio, double overhead_cal,
                    double plain_cal)
{
    for (const TracedRound &tr : traced) {
        const std::string err = checkSpans(tr);
        if (!err.empty()) {
            errors_.push_back("span check: " + err);
            break;
        }
    }
    // Per-layer self time: median per traced round, and share of
    // the traced rounds' total time.
    double round_total = 0;
    for (const TracedRound &tr : traced)
        for (const CellRecord &c : tr.cells)
            for (const auto &[layer, ms] : c.self_ms)
                round_total += ms;
    for (const std::string &layer : kLayers) {
        std::vector<double> per_round;
        double total = 0;
        for (const TracedRound &tr : traced) {
            double ms = 0;
            for (const CellRecord &c : tr.cells) {
                auto it = c.self_ms.find(layer);
                if (it != c.self_ms.end())
                    ms += it->second;
            }
            per_round.push_back(ms);
            total += ms;
        }
        json.metric(layer + ".self_ms", median(per_round), "ms");
        json.metric(layer + ".share",
                    round_total > 0 ? 100.0 * total / round_total : 0.0,
                    "%");
    }
    double parse_total = 0;
    for (const Span &s : tracer_.spans())
        if (s.layer == "workloads.parse")
            parse_total += s.ms();
    json.metric("workloads.parse.self_ms", median(setup_ms_), "ms");

    // Counts of one traced round, summed over its cells. Every traced
    // round does the same work, so their counts must agree.
    const TracedRound &tr = traced.front();
    for (const TracedRound &t : traced)
        if (t.counters != tr.counters || t.pass_counters != tr.pass_counters) {
            errors_.push_back("layer counts differ between traced rounds");
            break;
        }
    auto cnt = [&](const std::string &key) -> double {
        auto it = tr.counters.find(key);
        return it == tr.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
    };
    auto pcnt = [&](const std::string &key) -> double {
        auto it = tr.pass_counters.find(key);
        return it == tr.pass_counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    json.metric("pdg.arcs", pcnt("pdg:arcs"), "count");
    json.metric("coco.problems", cnt("coco:coco.problems"), "count");
    json.metric("coco.solves", cnt("coco:coco.solves"), "count");
    json.metric("coco.augmenting_paths", cnt("coco:coco.augmenting_paths"),
                "count");
    json.metric("coco.warm_ratio",
                ratio(cnt("coco:coco.warm_starts"),
                      cnt("coco:coco.warm_starts") +
                          cnt("coco:coco.cold_rebuilds")),
                "ratio");
    json.metric("mtcg.queues", pcnt("queue-alloc:queues"), "count");
    json.metric("mtverify.hb_pairs", pcnt("verify-mt:hb_pairs"), "count");
    json.metric("runtime.mt_dyn_instrs",
                cnt("runtime.mt_run:mtinterp.dyn_instrs"), "count");
    json.metric("sim.cycles", cnt("sim:sim.cycles"), "count");
    json.metric("sim.skip_ratio",
                ratio(cnt("sim:sim.skipped_cycles"), cnt("sim:sim.cycles")),
                "ratio");
    json.metric("autotune.iterations",
                cnt("autotune:autotune.iterations"), "count");
    json.metric("autotune.accept_ratio",
                ratio(cnt("autotune:autotune.moves_accepted"),
                      cnt("autotune:autotune.moves_accepted") +
                          cnt("autotune:autotune.moves_rejected")),
                "ratio");
    json.metric("driver.cache_hit_ratio", cache_hit_ratio, "ratio");
    json.metric("workloads.parse_mb_per_s",
                ratio(static_cast<double>(inputs_.bytes) / 1e6 *
                          static_cast<double>(parse_loads_),
                      parse_total / 1e3),
                "MB/s");

    // Size axis: per workload (summed over its configs), median
    // self time per layer across traced rounds against instrs.
    std::map<std::string, size_t> group_of;
    std::vector<double> group_instrs;
    for (size_t i = 0; i < cells_.size(); ++i) {
        const std::string &name = cells_[i][0].workload.name;
        if (!group_of.count(name)) {
            group_of[name] = group_instrs.size();
            group_instrs.push_back(static_cast<double>(
                cells_[i][0].workload.func.numInstrs()));
        }
    }
    for (const std::string layer :
         {"pdg", "partition", "coco", "mtverify"}) {
        std::vector<std::pair<double, double>> xy;
        for (size_t g = 0; g < group_instrs.size(); ++g) {
            std::vector<double> per_round;
            for (const TracedRound &t : traced) {
                double ms = 0;
                for (size_t i = 0; i < cells_.size(); ++i) {
                    if (group_of[cells_[i][0].workload.name] != g)
                        continue;
                    auto it = t.cells[i].self_ms.find(layer);
                    if (it != t.cells[i].self_ms.end())
                        ms += it->second;
                }
                per_round.push_back(ms);
            }
            xy.emplace_back(group_instrs[g], median(per_round));
        }
        json.metric(layer + ".growth_exp", logLogSlope(xy), "power");
    }
    json.metric("trace.overhead_cal", overhead_cal, "cal");
    json.metric("trace.overhead_pct", ratio(100.0 * overhead_cal, plain_cal),
                "%");

    std::printf("# %-28s %7s %7s %8s %7s %7s %10s\n", "cell", "instrs",
                "blocks", "pdg_arcs", "coco_pb", "queues", "dyn_instrs");
    for (size_t i = 0; i < cells_.size(); ++i) {
        const CellRecord &c = tr.cells[i];
        std::printf("# %-28s %7lld %7lld %8lld %7llu %7lld %10llu\n",
                    cellName(cells_[i][0]).c_str(),
                    static_cast<long long>(c.instrs),
                    static_cast<long long>(c.blocks),
                    static_cast<long long>(c.arcs),
                    static_cast<unsigned long long>(c.coco_problems),
                    static_cast<long long>(c.queues),
                    static_cast<unsigned long long>(c.dyn_instrs));
    }
}

int
Bench::run()
{
    setup();
    const bool outputs_ok = verify();
    std::printf("# workload %s: %zu cells, seed %llu rotates the order by "
                "%zu\n",
                opt_.workload.c_str(), cells_.size(),
                static_cast<unsigned long long>(opt_.seed),
                order_.empty() ? size_t{0} : order_[0]);

    // Size the calibration slices from a few full kernel runs.
    ms_per_iter_ = median({kernelMs(perfbench::kKernelIterations),
                           kernelMs(perfbench::kKernelIterations),
                           kernelMs(perfbench::kKernelIterations)}) /
                   perfbench::kKernelIterations;

    // Timed rounds. The traced run alternates plain and traced rounds
    // so the tracing overhead is measured under the same drift.
    std::vector<double> plain_cal, plain_ms, traced_cal, kernel_ms;
    std::vector<TracedRound> traced;
    uint64_t attempted = 0, failed = 0;
    bool deterministic = true;
    double cache_hit_ratio = 0;

    auto t_start = Clock::now();
    const int min_rounds = opt_.trace ? 4 : 3;
    // Set-up samples spread over the run, so setup_s sees the same
    // stretch of host time as the rounds do.
    constexpr int kSetupSamples = 12;
    double next_setup_ms = 0;
    const double hard_cap_ms = 120e3;
    for (int r = 0;; ++r) {
        const double elapsed = msSince(t_start);
        if (r >= min_rounds &&
            (elapsed >= opt_.seconds * 1e3 || elapsed >= hard_cap_ms))
            break;
        if (elapsed >= next_setup_ms) {
            setupSample();
            next_setup_ms += opt_.seconds * 1e3 / kSetupSamples;
        }
        const bool traced_round = opt_.trace && r % 2 == 1;
        RoundOut out = round(traced_round ? &traced.emplace_back() : nullptr);
        std::printf("# round %d%s: %.3f ms, kernel %.3f ms, %.5f cal\n", r,
                    traced_round ? " (traced)" : "", out.ms, out.kernel_ms,
                    out.cal);

        for (size_t i = 0; i < cells_.size(); ++i) {
            ++attempted;
            if (!out.results[i])
                ++failed;
            if (out.results[i].has_value() != truth_[i].has_value() ||
                (out.results[i] && !(*out.results[i] == *truth_[i])))
                deterministic = false;
        }
        const uint64_t lookups = out.cache_hits + out.cache_misses;
        cache_hit_ratio = lookups ? static_cast<double>(out.cache_hits) /
                                        static_cast<double>(lookups)
                                  : 0.0;
        if (traced_round) {
            traced_cal.push_back(out.cal);
        } else {
            plain_cal.push_back(out.cal);
            plain_ms.push_back(out.ms);
            kernel_ms.push_back(out.kernel_ms);
        }
    }
    if (!deterministic)
        errors_.push_back("a round's results differ from the verification "
                          "pass");

    // Exact counts from the verified results.
    double log_speedup = 0;
    uint64_t comm = 0, dyn = 0, ok_cells = 0;
    for (const auto &r : truth_) {
        if (!r)
            continue;
        ++ok_cells;
        log_speedup += std::log(r->speedup());
        comm += r->communication();
        dyn += r->total();
    }
    const double speedup =
        ok_cells ? std::exp(log_speedup / static_cast<double>(ok_cells))
                 : 0.0;

    std::printf("# rounds %zu, round_ms median %.3f, kernel_ms median "
                "%.3f, compile_cal median %.5f\n",
                plain_ms.size(), median(plain_ms), median(kernel_ms),
                median(plain_cal));
    std::printf("# setup samples %zu of %d loads, median %.3f ms per load\n",
                setup_ms_.size(), setup_reps_, median(setup_ms_));
    std::printf("# cells failed %llu of %llu attempted\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    ResultJson json;
    if (!opt_.trace) {
        json.metric("compile_cal", median(plain_cal), "cal");
        json.metric("setup_s", median(setup_ms_) / 1e3, "s");
        json.metric("speedup_geomean", speedup, "x");
        json.metric("comm_dyn_instrs", static_cast<double>(comm), "count");
        json.metric("mt_dyn_instrs", static_cast<double>(dyn), "count");
        json.metric("code_size_instrs", static_cast<double>(code_size_),
                    "count");
        json.metric("peak_rss_mb", peakRssMb(), "MB");
        json.metric("cell_ok_ratio",
                    attempted ? static_cast<double>(attempted - failed) /
                                    static_cast<double>(attempted)
                              : 0.0,
                    "ratio");
    } else {
        reportLayers(json, traced, cache_hit_ratio,
                     median(traced_cal) - median(plain_cal),
                     median(plain_cal));
    }

    if (!opt_.trace_out.empty() && opt_.trace) {
        std::ofstream out(opt_.trace_out);
        for (const Span &s : tracer_.spans())
            out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
                << ",\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
                << "\",\"start_us\":" << s.start_ns / 1000.0
                << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000.0
                << "}\n";
    }

    for (const std::string &e : errors_)
        std::printf("# ERROR %s\n", e.c_str());
    const bool correct = outputs_ok && errors_.empty();
    std::printf("%s\n", json.render(correct, attempted, failed).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usageError("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--root")
            o.root = v;
        else if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--trace-out")
            o.trace_out = v;
        else
            usageError("unknown flag " + a);
    }
    if (o.workload != "paper-matrix" && o.workload != "gen-ladder" &&
        o.workload != "autotune-matrix")
        usageError("--workload must be paper-matrix, gen-ladder or "
                   "autotune-matrix");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Bench bench(parseArgs(argc, argv));
    return bench.run();
}
