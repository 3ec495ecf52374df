#ifndef GMT_GRAPH_MAX_FLOW_HPP
#define GMT_GRAPH_MAX_FLOW_HPP

/**
 * @file
 * Max-flow / min-cut over directed networks with integer capacities.
 *
 * COCO models every communication-placement decision as a min-cut
 * (paper §3.1): a cut arc is a program point where a produce/consume
 * pair is inserted. The solver is Edmonds-Karp, the paper's choice:
 * on COCO's small CFG-shaped networks it is faster cold than Dinic or
 * push-relabel (EXPERIMENTS.md, "Compile time").
 *
 * Both FlowNetwork and MaxFlow are arena-friendly: reset(n) rewinds a
 * network without releasing its arc storage, and one MaxFlow instance
 * can be re-attached to successive networks, reusing its traversal
 * scratch. COCO keeps one of each in its cut arena and solves
 * thousands of problems without re-allocating (coco/coco.cpp).
 *
 * Incremental solving: COCO's repeat-until loop re-solves networks
 * that differ from a previous solve by a handful of arc costs.
 * resolve() accepts such capacity deltas against the residual state
 * of the previous solve of the same (s, t) pair: increases simply
 * widen the residual and keep pushing; decreases below the flow an
 * arc currently carries are repaired by rerouting through the
 * residual graph and cancelling the remainder by flow decomposition
 * (the surplus walks back to a terminal along reverses of the flow
 * paths that fed it). Because the source-side and sink-side minimum
 * cuts of a network are each unique across all maximum flows, and
 * minCutArcs() always derives the cut from a fresh residual
 * reachability pass, a warm-started resolve reports byte-identical
 * cuts to a from-scratch solve — asserted against a cold Edmonds-Karp
 * run whenever the cross-check is compiled in (debug builds, or any
 * build with GMT_FLOW_CROSSCHECK defined).
 */

#include <cstdint>
#include <vector>

namespace gmt
{

/** Arc capacities / flow values. */
using Capacity = int64_t;

/** Effectively-infinite capacity for arcs that must not be cut. */
inline constexpr Capacity kInfCapacity = int64_t{1} << 50;

/**
 * Which minimum cut to report when several have equal cost: the one
 * closest to the source (earliest program points — better pipelining
 * for register communication, paper §5) or closest to the sink
 * (latest points — maximizes sharing between memory-dependence pairs
 * in the sequential multi-pair heuristic). Both sides are unique
 * across all maximum flows (the min-cut family forms a lattice whose
 * extreme elements are flow-independent), so the reported cut does
 * not depend on warm-start history.
 */
enum class CutSide { Source, Sink };

/**
 * One capacity change against a previously solved network, consumed
 * by MaxFlow::resolve(). @c remove marks the arc deleted (capacity
 * zero and excluded from minCutArcs(), like FlowNetwork::removeArc);
 * a later delta with remove == false resurrects it at @c cap.
 */
struct ArcDelta
{
    int arc = -1;
    Capacity cap = 0;
    bool remove = false;
};

/**
 * A flow network. Arcs are directed and identified by the dense id
 * returned from addArc(); reverse residual arcs are internal.
 *
 * Typical use:
 * @code
 *   FlowNetwork net(n);
 *   int a = net.addArc(u, v, weight);
 *   MaxFlow mf(net);
 *   Capacity value = mf.solve(s, t);
 *   std::vector<int> cut = mf.minCutArcs();   // ids like a
 * @endcode
 */
class FlowNetwork
{
  public:
    explicit FlowNetwork(int num_nodes);

    /**
     * Rewind to an empty network of @p num_nodes nodes, keeping all
     * previously grown storage (no deallocation): the arena-reuse
     * path for solvers that build many graphs in sequence.
     */
    void reset(int num_nodes);

    /** Add a node, returning its id. */
    int addNode();

    /**
     * Add arc u -> v with capacity @p cap.
     * @return the arc id used by minCutArcs() / removeArc().
     */
    int addArc(int u, int v, Capacity cap);

    /**
     * Mark an arc deleted (used by the multi-pair heuristic): zero
     * residual in both directions and excluded from minCutArcs().
     * The original capacity is retained so clearRemoved() +
     * restoreResiduals() can rewind the network to its built state.
     */
    void removeArc(int arc);

    /** Un-delete every removed arc (restoreResiduals() revives them). */
    void clearRemoved();

    /** True if removeArc() deleted @p arc (and no delta revived it). */
    bool arcRemoved(int arc) const { return removed_[arc] != 0; }

    /**
     * Overwrite an arc's capacity without touching residual state.
     * Used by the cold warm-refresh path (COCO's flow-graph diff
     * mode); pair with restoreResiduals() before solving again.
     */
    void setArcCapacity(int arc, Capacity cap);

    /**
     * Restore every arc's residual to its capacity (removed arcs stay
     * at zero): the network is back in its freshly built state.
     */
    void restoreResiduals();

    int numNodes() const { return num_nodes_; }
    int numArcs() const { return static_cast<int>(arcs_.size()) / 2; }

    int arcTail(int arc) const { return tails_[2 * arc]; }
    int arcHead(int arc) const { return arcs_[2 * arc].to; }
    Capacity arcCapacity(int arc) const { return original_cap_[arc]; }

    /** Flow currently routed through @p arc (reverse residual). */
    Capacity arcFlow(int arc) const { return arcs_[2 * arc + 1].residual; }

  private:
    friend class MaxFlow;

    struct Arc
    {
        int to;
        Capacity residual; // remaining capacity in this direction
    };

    // Arcs stored as interleaved forward/backward pairs: external arc
    // id a is internal arcs 2a (forward) and 2a+1 (backward).
    std::vector<Arc> arcs_;
    std::vector<int> tails_;
    std::vector<Capacity> original_cap_;
    std::vector<char> removed_;

    // Adjacency slots [0, num_nodes_) are live; slots beyond (left by
    // a shrinking reset) are dirty and re-cleared on reuse.
    std::vector<std::vector<int>> first_out_; // node -> internal arc ids
    int num_nodes_ = 0;
};

/**
 * Edmonds-Karp max-flow solver over a FlowNetwork (shortest
 * augmenting paths by BFS). The network's residual state is
 * mutated by solve(); call reset() to restore original capacities.
 * One instance can serve many networks via attach(), keeping its
 * traversal scratch vectors across solves.
 */
class MaxFlow
{
  public:
    explicit MaxFlow(FlowNetwork &net);

    /** Detached solver for arena reuse; attach() before solve(). */
    MaxFlow();

    /** Rebind to another network. */
    void attach(FlowNetwork &net);

    /**
     * Rebind to a network whose residual state already encodes a
     * completed max-flow of value @p flow for (@p s, @p t) — e.g. a
     * network retained by COCO's cut arena between iterations.
     * resolve() may then be called directly, without a fresh solve().
     */
    void attachSolved(FlowNetwork &net, int s, int t, Capacity flow);

    /** Work counters, accumulated across solve() calls. */
    struct Stats
    {
        /** Augmenting paths pushed (solve and resolve repair). */
        uint64_t augmenting_paths = 0;

        /** Warm-started resolve() calls. */
        uint64_t warm_resolves = 0;
    };

    /** Compute the max flow from @p s to @p t. */
    Capacity solve(int s, int t);

    /**
     * Warm-started re-solve: apply @p deltas to the previously solved
     * network (same terminals as the last solve()/attachSolved()) and
     * bring the flow back to maximum without starting from zero.
     * Capacity increases keep the whole residual; decreases below the
     * arc's current flow are repaired by rerouting through the
     * residual graph and flow decomposition of the remainder.
     * @return the new max-flow value.
     */
    Capacity resolve(const std::vector<ArcDelta> &deltas);

    /**
     * Arc ids of a minimum s-t cut (callable after solve). With
     * CutSide::Source: arcs leaving the set reachable from s in the
     * residual graph; with CutSide::Sink: arcs entering the set that
     * reaches t in the residual graph. Always derived from a fresh
     * reachability pass over the current residual, so the reported
     * cut is independent of solve history (warm or cold).
     */
    std::vector<int> minCutArcs(CutSide side = CutSide::Source) const;

    /** True if the last solve found a cut of finite value. */
    bool finite() const { return last_flow_ < kInfCapacity / 2; }

    /** Max-flow value of the last solve()/resolve(). */
    Capacity lastFlow() const { return last_flow_; }

    /** Restore all residual capacities to the original capacities. */
    void reset();

    const Stats &stats() const { return stats_; }

  private:
    /**
     * Push at most @p limit units from @p from to @p to along
     * residual paths (shortest-path augmentations). Returns the
     * amount actually pushed. Unlimited, s to t, it is the solver;
     * limited, it is the repair primitive of resolve().
     */
    Capacity augmentLimited(int from, int to, Capacity limit);

    /** Net flow out of @p s under the current residual state. */
    Capacity currentFlowValue(int s) const;

    /** Nodes reachable from s in the residual graph. */
    std::vector<bool> residualReachable(int s) const;

    /** Nodes that can reach t in the residual graph. */
    std::vector<bool> residualReaching(int t) const;

#if !defined(NDEBUG) || defined(GMT_FLOW_CROSSCHECK)
    /** Differential gate: a cold solve must agree exactly. */
    void crosscheckAgainstReference(const char *what);
#endif

    FlowNetwork *net_;
    int last_s_ = -1;
    int last_t_ = -1;
    Capacity last_flow_ = 0;
    Stats stats_;

    // BFS scratch, reused across solves (and, via attach(), across
    // networks).
    std::vector<int> pred_arc_;
};

} // namespace gmt

#endif // GMT_GRAPH_MAX_FLOW_HPP
