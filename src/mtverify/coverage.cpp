#include "mtverify/coverage.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>

#include "support/error.hpp"

namespace gmt
{

namespace
{

/** Which placements can cut an arc. Memory keys carry kNoReg. */
struct CutKey
{
    int src_thread = 0;
    int dst_thread = 0;
    bool memory = false;
    Reg reg = kNoReg;

    auto operator<=>(const CutKey &) const = default;
};

/** One cross-thread data arc, ordered by key, then source. */
struct Item
{
    int key = 0;
    InstrId src = kNoInstr;
    int arc = 0;
};

/** A walk entering a block at position `from` reaches the points
 *  [from, end); `leaves` = it falls off the block's end. */
struct Reach
{
    int end = 0;
    bool leaves = false;
};

} // namespace

std::vector<int>
uncoveredArcs(const Function &f, const Pdg &pdg,
              const ThreadPartition &partition, const CommPlan &plan)
{
    const std::vector<PdgArc> &arcs = pdg.arcs();

    std::map<CutKey, int> key_ids;
    std::vector<CutKey> keys;
    std::vector<Item> items;
    for (int ai = 0; ai < static_cast<int>(arcs.size()); ++ai) {
        const PdgArc &arc = arcs[ai];
        int ts = partition.threadOf(arc.src);
        int tt = partition.threadOf(arc.dst);
        if (ts == tt || arc.kind == DepKind::Control)
            continue;
        bool memory = arc.kind == DepKind::Memory;
        auto [it, fresh] = key_ids.try_emplace(
            {ts, tt, memory, memory ? kNoReg : arc.reg},
            static_cast<int>(keys.size()));
        if (fresh)
            keys.push_back(it->first);
        items.push_back({it->second, arc.src, ai});
    }
    if (items.empty())
        return {};
    std::sort(items.begin(), items.end(),
              [](const Item &a, const Item &b) {
                  return std::tie(a.key, a.src, a.arc) <
                         std::tie(b.key, b.src, b.arc);
              });

    std::vector<std::vector<int>> placements_of(keys.size());
    for (int pi = 0; pi < static_cast<int>(plan.placements.size());
         ++pi) {
        const CommPlacement &pl = plan.placements[pi];
        bool memory = pl.kind == CommKind::MemorySync;
        auto it = key_ids.find({pl.src_thread, pl.dst_thread, memory,
                                memory ? kNoReg : pl.reg});
        if (it != key_ids.end())
            placements_of[it->second].push_back(pi);
    }

    std::vector<int> pos_of(f.numInstrs(), -1);
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &list = f.block(b).instrs();
        for (int p = 0; p < static_cast<int>(list.size()); ++p)
            pos_of[list[p]] = p;
    }
    auto posOf = [&](InstrId i) {
        GMT_ASSERT(pos_of[i] >= 0, "instruction not in its block");
        return pos_of[i];
    };

    // Key k stamps its barrier and its entry-at-0 cache with k + 1;
    // each walk stamps the blocks it enters at 0 with its own epoch.
    std::vector<uint32_t> barrier(f.numInstrs(), 0);
    std::vector<uint32_t> cached(f.numBlocks(), 0);
    std::vector<Reach> entry0(f.numBlocks());
    std::vector<uint32_t> visited(f.numBlocks(), 0);
    uint32_t walk = 0;
    std::vector<BlockId> work;
    std::vector<int> uncovered;

    size_t lo = 0;
    while (lo < items.size()) {
        int k = items[lo].key;
        uint32_t epoch = static_cast<uint32_t>(k) + 1;
        for (int pi : placements_of[k]) {
            for (const ProgramPoint &p : plan.placements[pi].points) {
                if (p.block < 0 || p.block >= f.numBlocks())
                    continue;
                const auto &list = f.block(p.block).instrs();
                if (p.pos >= 0 && p.pos < static_cast<int>(list.size()))
                    barrier[list[p.pos]] = epoch;
            }
        }

        // A barrier point is not reached; a redefinition of the
        // carried register is reached, but kills the path after it.
        Reg kill = keys[k].reg;
        auto scan = [&](BlockId b, int from) {
            const auto &list = f.block(b).instrs();
            int size = static_cast<int>(list.size());
            for (int p = from; p < size; ++p) {
                if (barrier[list[p]] == epoch)
                    return Reach{p, false};
                if (kill != kNoReg && f.defOf(list[p]) == kill)
                    return Reach{p + 1, false};
            }
            return Reach{size, true};
        };

        for (; lo < items.size() && items[lo].key == k;) {
            InstrId src = items[lo].src;
            BlockId sb = f.instr(src).block;
            int start = posOf(src) + 1;
            GMT_ASSERT(start < static_cast<int>(f.block(sb).size()),
                       "dependence source i", src, " ends its block");
            Reach from_src = scan(sb, start);

            ++walk;
            work.clear();
            if (from_src.leaves)
                work = f.block(sb).succs();
            while (!work.empty()) {
                BlockId b = work.back();
                work.pop_back();
                if (visited[b] == walk)
                    continue;
                visited[b] = walk;
                if (cached[b] != epoch) {
                    entry0[b] = scan(b, 0);
                    cached[b] = epoch;
                }
                if (entry0[b].leaves) {
                    const auto &succs = f.block(b).succs();
                    work.insert(work.end(), succs.begin(), succs.end());
                }
            }

            for (; lo < items.size() && items[lo].key == k &&
                   items[lo].src == src;
                 ++lo) {
                InstrId dst = arcs[items[lo].arc].dst;
                BlockId db = f.instr(dst).block;
                int dp = posOf(dst);
                bool escapes =
                    (db == sb && dp >= start && dp < from_src.end) ||
                    (visited[db] == walk && dp < entry0[db].end);
                if (escapes)
                    uncovered.push_back(items[lo].arc);
            }
        }
    }
    std::sort(uncovered.begin(), uncovered.end());
    return uncovered;
}

} // namespace gmt
