#include "coco/validate.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "coco/safety.hpp"
#include "mtverify/coverage.hpp"

namespace gmt
{

std::vector<MtvDiag>
validatePlanDiags(const Function &f, const Pdg &pdg,
                  const ThreadPartition &partition,
                  const ControlDependence &cd, const CommPlan &plan,
                  const PlanCheckInputs &shared)
{
    std::vector<MtvDiag> problems;
    auto cat = [](auto &&...parts) {
        std::ostringstream os;
        (os << ... << parts);
        return os.str();
    };

    // Structural pre-check: every point must name a real program
    // position before any analysis consumes the plan.
    for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
        for (const auto &p : plan.placements[pi].points) {
            if (p.block < 0 || p.block >= f.numBlocks() || p.pos < 0 ||
                p.pos >= static_cast<int>(f.block(p.block).size())) {
                problems.push_back(
                    {.code = MtvCode::PlanInvalidPoint,
                     .message = cat("placement ", pi,
                                    ": invalid point")});
            }
        }
    }
    if (!problems.empty()) {
        sortDiags(problems);
        dedupeDiags(problems);
        return problems;
    }

    RelevantSets relevant(f, cd, partition, plan);

    // Properties 2 and 3 per placement point.
    std::vector<std::unique_ptr<SafetyAnalysis>> own_safety(
        partition.num_threads);
    auto safetyOf = [&](int t) -> const SafetyAnalysis & {
        if (shared.safety != nullptr)
            return (*shared.safety)[t];
        if (!own_safety[t])
            own_safety[t] =
                std::make_unique<SafetyAnalysis>(f, partition, t);
        return *own_safety[t];
    };
    for (size_t pi = 0; pi < plan.placements.size(); ++pi) {
        const CommPlacement &pl = plan.placements[pi];
        for (const auto &p : pl.points) {
            if (!relevant.isRelevantPoint(pl.src_thread, p.block, cd)) {
                problems.push_back(
                    {.code = MtvCode::PlanSourceIrrelevant,
                     .thread = pl.src_thread,
                     .block = p.block,
                     .pos = p.pos,
                     .message = cat("placement ", pi,
                                    ": Property 2 violated (point in "
                                    "block ",
                                    f.block(p.block).label(),
                                    " not relevant to source thread ",
                                    pl.src_thread, ")")});
            }
            if (pl.kind == CommKind::RegisterData &&
                !safetyOf(pl.src_thread).isSafeAt(pl.reg, p)) {
                // MTCG's operand forwarding: a thread may re-produce
                // a value it consumes *at the same point* from an
                // earlier placement (Algorithm 1 lines 17-19 send a
                // branch operand the owner just received). The
                // earlier placement's own check guarantees the
                // forwarded value is the latest.
                bool forwarded = false;
                for (size_t pj = 0; pj < pi && !forwarded; ++pj) {
                    const CommPlacement &prev = plan.placements[pj];
                    forwarded =
                        prev.kind == CommKind::RegisterData &&
                        prev.reg == pl.reg &&
                        prev.dst_thread == pl.src_thread &&
                        std::find(prev.points.begin(),
                                  prev.points.end(),
                                  p) != prev.points.end();
                }
                if (!forwarded) {
                    problems.push_back(
                        {.code = MtvCode::PlanUnsafePoint,
                         .thread = pl.src_thread,
                         .block = p.block,
                         .pos = p.pos,
                         .message = cat("placement ", pi,
                                        ": Property 3 violated (r",
                                        pl.reg, " unsafe at ",
                                        f.block(p.block).label(), ":",
                                        p.pos, ")")});
                }
            }
        }
    }

    // Coverage of every cross-thread PDG arc.
    std::vector<int> own_uncovered;
    if (shared.uncovered == nullptr)
        own_uncovered = uncoveredArcs(f, pdg, partition, plan);
    for (int ai : shared.uncovered != nullptr ? *shared.uncovered
                                               : own_uncovered) {
        const PdgArc &arc = pdg.arcs()[ai];
        int ts = partition.threadOf(arc.src);
        int tt = partition.threadOf(arc.dst);
        problems.push_back(
            {.code = MtvCode::PlanUncoveredArc,
             .thread = tt,
             .block = f.instr(arc.dst).block,
             .instr = arc.dst,
             .message = cat("arc i", arc.src, " -> i", arc.dst, " (",
                            arc.kind == DepKind::Register ? "reg"
                                                          : "mem",
                            ") from T", ts, " to T", tt,
                            " has an uncovered path")});
    }
    sortDiags(problems);
    dedupeDiags(problems);
    return problems;
}

std::vector<std::string>
validatePlan(const Function &f, const Pdg &pdg,
             const ThreadPartition &partition,
             const ControlDependence &cd, const CommPlan &plan,
             const PlanCheckInputs &shared)
{
    std::vector<std::string> rendered;
    for (const MtvDiag &d :
         validatePlanDiags(f, pdg, partition, cd, plan, shared))
        rendered.push_back(renderDiag(d));
    return rendered;
}

} // namespace gmt
