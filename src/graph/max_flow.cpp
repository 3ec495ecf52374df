#include "graph/max_flow.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "support/error.hpp"

namespace gmt
{

FlowNetwork::FlowNetwork(int num_nodes)
{
    reset(num_nodes);
}

void
FlowNetwork::reset(int num_nodes)
{
    GMT_ASSERT(num_nodes >= 0);
    // Clear exactly the slots the new epoch starts with; stale slots
    // beyond num_nodes are re-cleared by addNode() on reuse. Inner
    // vectors keep their capacity — that is the arena win.
    int have = static_cast<int>(first_out_.size());
    for (int i = 0; i < num_nodes && i < have; ++i)
        first_out_[i].clear();
    if (have < num_nodes)
        first_out_.resize(num_nodes);
    num_nodes_ = num_nodes;
    arcs_.clear();
    tails_.clear();
    original_cap_.clear();
    removed_.clear();
}

int
FlowNetwork::addNode()
{
    if (num_nodes_ < static_cast<int>(first_out_.size()))
        first_out_[num_nodes_].clear(); // stale slot from a reset
    else
        first_out_.emplace_back();
    return num_nodes_++;
}

int
FlowNetwork::addArc(int u, int v, Capacity cap)
{
    GMT_ASSERT(u >= 0 && u < numNodes() && v >= 0 && v < numNodes());
    GMT_ASSERT(cap >= 0);
    int fwd = static_cast<int>(arcs_.size());
    arcs_.push_back({v, cap});
    arcs_.push_back({u, 0});
    tails_.push_back(u);
    tails_.push_back(v);
    original_cap_.push_back(cap);
    removed_.push_back(0);
    first_out_[u].push_back(fwd);
    first_out_[v].push_back(fwd + 1);
    return fwd / 2;
}

void
FlowNetwork::removeArc(int arc)
{
    GMT_ASSERT(arc >= 0 && arc < numArcs());
    // The original capacity survives removal so restoreResiduals()
    // after clearRemoved() can rewind the network to its built state;
    // minCutArcs() must still report arcs whose original capacity is
    // zero (a zero profile weight does not make a program point
    // impossible, only free to cut), so removal is a separate flag.
    removed_[arc] = 1;
    arcs_[2 * arc].residual = 0;
    arcs_[2 * arc + 1].residual = 0;
}

void
FlowNetwork::clearRemoved()
{
    std::fill(removed_.begin(), removed_.end(), 0);
}

void
FlowNetwork::setArcCapacity(int arc, Capacity cap)
{
    GMT_ASSERT(arc >= 0 && arc < numArcs());
    GMT_ASSERT(cap >= 0);
    original_cap_[arc] = cap;
}

void
FlowNetwork::restoreResiduals()
{
    for (int a = 0; a < numArcs(); ++a) {
        arcs_[2 * a].residual = removed_[a] ? 0 : original_cap_[a];
        arcs_[2 * a + 1].residual = 0;
    }
}

MaxFlow::MaxFlow(FlowNetwork &net) : net_(&net) {}

MaxFlow::MaxFlow() : net_(nullptr) {}

void
MaxFlow::attach(FlowNetwork &net)
{
    net_ = &net;
    last_s_ = -1;
    last_t_ = -1;
    last_flow_ = 0;
}

void
MaxFlow::attachSolved(FlowNetwork &net, int s, int t, Capacity flow)
{
    GMT_ASSERT(s != t);
    net_ = &net;
    last_s_ = s;
    last_t_ = t;
    last_flow_ = flow;
}

void
MaxFlow::reset()
{
    net_->restoreResiduals();
    last_s_ = -1;
    last_flow_ = 0;
}

Capacity
MaxFlow::solve(int s, int t)
{
    GMT_ASSERT(net_, "solve() on a detached MaxFlow");
    GMT_ASSERT(s != t);
    last_s_ = s;
    last_t_ = t;
    augmentLimited(s, t, std::numeric_limits<Capacity>::max());
    // Derive the value from the residual state rather than the push
    // count: identical across cold solves, repeated solves on a dirty
    // residual, and warm resolves.
    last_flow_ = currentFlowValue(s);
    return last_flow_;
}

Capacity
MaxFlow::resolve(const std::vector<ArcDelta> &deltas)
{
    GMT_ASSERT(net_, "resolve() on a detached MaxFlow");
    GMT_ASSERT(last_s_ >= 0,
               "resolve() requires a previously solved network");
    const int s = last_s_;
    const int t = last_t_;
    ++stats_.warm_resolves;
    auto &arcs = net_->arcs_;
    for (const ArcDelta &d : deltas) {
        GMT_ASSERT(d.arc >= 0 && d.arc < net_->numArcs());
        Capacity cap = d.remove ? 0 : d.cap;
        GMT_ASSERT(cap >= 0);
        if (d.remove) {
            net_->removed_[d.arc] = 1;
        } else {
            net_->removed_[d.arc] = 0;
            net_->original_cap_[d.arc] = d.cap;
        }
        int fwd = 2 * d.arc;
        Capacity flow = arcs[fwd + 1].residual;
        if (cap >= flow) {
            // Widened (or unchanged): keep the carried flow, grow the
            // forward residual. The old flow stays feasible and the
            // re-augmentation below picks up any new headroom.
            arcs[fwd].residual = cap - flow;
            continue;
        }
        // Shrunk below the carried flow: clamp the arc to its new
        // capacity. That leaves a conservation surplus at the tail
        // and an equal deficit at the head, repaired by residual
        // pushes (path pushes only disturb balance at their
        // endpoints).
        Capacity surplus = flow - cap;
        arcs[fwd].residual = 0;
        arcs[fwd + 1].residual = cap;
        int u = net_->tails_[fwd];
        int v = arcs[fwd].to;
        // Reroute tail -> head through the rest of the residual graph
        // first. This also cancels flow cycles through the arc (a
        // cycle's remainder is exactly a residual u -> v path), which
        // the terminal-bound decomposition walks below cannot reach;
        // once these paths are saturated, every remaining surplus
        // unit lies on a terminal-to-terminal flow path.
        Capacity rerouted = augmentLimited(u, v, surplus);
        Capacity remainder = surplus - rerouted;
        if (remainder == 0)
            continue;
        // Cancel the remainder by flow decomposition: walk the
        // surplus back along the flow that fed the tail and the
        // deficit forward along the flow the head used to feed (both
        // are residual paths, reverses of flow paths). Terminals are
        // conservation-exempt, so a terminal endpoint needs no walk;
        // flow originating at t or terminating at s (legal in
        // arbitrary networks) is covered by the opposite-terminal
        // fallback.
        if (u != s && u != t) {
            Capacity drained = augmentLimited(u, s, remainder);
            if (drained < remainder)
                drained += augmentLimited(u, t, remainder - drained);
            GMT_ASSERT(drained == remainder,
                       "incremental repair: surplus drain failed");
        }
        if (v != s && v != t) {
            Capacity filled = augmentLimited(t, v, remainder);
            if (filled < remainder)
                filled += augmentLimited(s, v, remainder - filled);
            GMT_ASSERT(filled == remainder,
                       "incremental repair: deficit refill failed");
        }
    }
    // The repaired flow is feasible; push the rest of the way to max.
    augmentLimited(s, t, std::numeric_limits<Capacity>::max());
    last_flow_ = currentFlowValue(s);
#if !defined(NDEBUG) || defined(GMT_FLOW_CROSSCHECK)
    crosscheckAgainstReference("resolve");
#endif
    return last_flow_;
}

Capacity
MaxFlow::augmentLimited(int from, int to, Capacity limit)
{
    if (limit <= 0 || from == to)
        return 0;
    auto &arcs = net_->arcs_;
    Capacity pushed = 0;
    pred_arc_.assign(net_->numNodes(), -1);
    while (pushed < limit) {
        std::fill(pred_arc_.begin(), pred_arc_.end(), -1);
        pred_arc_[from] = -2;
        std::deque<int> queue{from};
        while (!queue.empty() && pred_arc_[to] == -1) {
            int u = queue.front();
            queue.pop_front();
            for (int a : net_->first_out_[u]) {
                int v = arcs[a].to;
                if (pred_arc_[v] == -1 && arcs[a].residual > 0) {
                    pred_arc_[v] = a;
                    queue.push_back(v);
                }
            }
        }
        if (pred_arc_[to] == -1)
            break;
        Capacity bottleneck = limit - pushed;
        for (int v = to; v != from;) {
            int a = pred_arc_[v];
            bottleneck = std::min(bottleneck, arcs[a].residual);
            v = arcs[a ^ 1].to;
        }
        for (int v = to; v != from;) {
            int a = pred_arc_[v];
            arcs[a].residual -= bottleneck;
            arcs[a ^ 1].residual += bottleneck;
            v = arcs[a ^ 1].to;
        }
        pushed += bottleneck;
        ++stats_.augmenting_paths;
    }
    return pushed;
}

Capacity
MaxFlow::currentFlowValue(int s) const
{
    // Net outflow at s. The backward internal arc of every external
    // arc started at zero residual, so its residual is exactly the
    // flow the arc carries: even internal ids leaving s are forward
    // arcs (flow out of s), odd ids are the reverses of arcs into s.
    Capacity total = 0;
    for (int b : net_->first_out_[s]) {
        if ((b & 1) == 0)
            total += net_->arcs_[b ^ 1].residual;
        else
            total -= net_->arcs_[b].residual;
    }
    return total;
}

std::vector<bool>
MaxFlow::residualReachable(int s) const
{
    std::vector<bool> seen(net_->numNodes(), false);
    std::vector<int> stack{s};
    seen[s] = true;
    while (!stack.empty()) {
        int u = stack.back();
        stack.pop_back();
        for (int a : net_->first_out_[u]) {
            int v = net_->arcs_[a].to;
            if (!seen[v] && net_->arcs_[a].residual > 0) {
                seen[v] = true;
                stack.push_back(v);
            }
        }
    }
    return seen;
}

std::vector<bool>
MaxFlow::residualReaching(int t) const
{
    // Reverse traversal: x can step to y (against an arc y -> x) iff
    // the arc y -> x has residual capacity; for internal arc b = x->y,
    // its partner b^1 is y -> x.
    std::vector<bool> seen(net_->numNodes(), false);
    std::vector<int> stack{t};
    seen[t] = true;
    while (!stack.empty()) {
        int x = stack.back();
        stack.pop_back();
        for (int b : net_->first_out_[x]) {
            int y = net_->arcs_[b].to;
            if (!seen[y] && net_->arcs_[b ^ 1].residual > 0) {
                seen[y] = true;
                stack.push_back(y);
            }
        }
    }
    return seen;
}

std::vector<int>
MaxFlow::minCutArcs(CutSide side) const
{
    GMT_ASSERT(last_s_ >= 0, "solve() must run before minCutArcs()");
    // Source side: nodes reachable from s in the residual graph.
    // Sink side: complement of the nodes reaching t — both are valid
    // minimum cuts; they differ only in which of several equal-cost
    // cuts is reported. Each side is unique across all maximum flows
    // and the residual pass below is run fresh every call, so the
    // answer cannot depend on how the flow was reached (cold solve,
    // repeated solve, or warm resolve).
    std::vector<bool> source_side;
    if (side == CutSide::Source) {
        source_side = residualReachable(last_s_);
    } else {
        source_side = residualReaching(last_t_);
        source_side.flip();
    }
    std::vector<int> cut;
    for (int a = 0; a < net_->numArcs(); ++a) {
        if (net_->removed_[a])
            continue; // deleted by removeArc
        if (source_side[net_->arcTail(a)] &&
            !source_side[net_->arcHead(a)])
            cut.push_back(a);
    }
    return cut;
}

#if !defined(NDEBUG) || defined(GMT_FLOW_CROSSCHECK)
void
MaxFlow::crosscheckAgainstReference(const char *what)
{
    // Copy the network, rewind the copy to original capacities, and
    // solve it cold: flow value and both cut sides must agree exactly
    // (cut uniqueness, not heuristics).
    FlowNetwork copy = *net_;
    MaxFlow ref(copy);
    ref.reset();
    Capacity ref_flow = ref.solve(last_s_, last_t_);
    GMT_ASSERT(ref_flow == last_flow_,
               "flow value diverged from cold Edmonds-Karp in ", what);
    GMT_ASSERT(ref.minCutArcs(CutSide::Source) ==
                   minCutArcs(CutSide::Source),
               "source-side cut diverged from cold Edmonds-Karp in ",
               what);
    GMT_ASSERT(ref.minCutArcs(CutSide::Sink) ==
                   minCutArcs(CutSide::Sink),
               "sink-side cut diverged from cold Edmonds-Karp in ",
               what);
}
#endif

} // namespace gmt
