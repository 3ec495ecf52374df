#include "analysis/mem_dep.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "graph/scc.hpp"

namespace gmt
{

bool
mayAlias(AliasClass a, AliasClass b)
{
    return a == b || a == kAliasAny || b == kAliasAny;
}

BlockReachability::BlockReachability(const Function &f)
{
    const int nb = f.numBlocks();
    Digraph cfg(nb);
    for (BlockId b = 0; b < nb; ++b)
        for (BlockId s : f.block(b).succs())
            cfg.addEdge(b, s);
    SccResult sccs = computeSccs(cfg);
    scc_of_ = std::move(sccs.component);

    // Condensation edges run from lower to higher component numbers,
    // so walking components downward sees every successor's set
    // complete. Each edge b -> s adds s, and s's set when s lies in
    // another component; the edges inside a cyclic component add all
    // its members (a self loop adds its block).
    const int nc = sccs.numComponents();
    reach_.assign(nc, BitVector(nb));
    for (int c = nc - 1; c >= 0; --c) {
        for (BlockId b : sccs.members[c]) {
            for (BlockId s : f.block(b).succs()) {
                reach_[c].set(s);
                if (scc_of_[s] != c)
                    reach_[c].unionWith(reach_[scc_of_[s]]);
            }
        }
    }
}

std::vector<MemDep>
computeMemDeps(const Function &f)
{
    const int nb = f.numBlocks();
    BlockReachability reach(f);

    // Collect memory instructions with their block positions.
    struct MemAccess
    {
        InstrId id;
        BlockId block;
        int pos;
        bool is_store;
        AliasClass alias;
    };
    std::vector<MemAccess> accesses;
    for (BlockId b = 0; b < nb; ++b) {
        const auto &instrs = f.block(b).instrs();
        for (int pos = 0; pos < static_cast<int>(instrs.size()); ++pos) {
            const Instr &in = f.instr(instrs[pos]);
            if (in.isMemoryAccess()) {
                accesses.push_back({instrs[pos], b, pos,
                                    in.op == Opcode::Store, in.alias});
            }
        }
    }

    auto pathExists = [&](const MemAccess &i, const MemAccess &j) {
        if (i.block == j.block && i.pos < j.pos)
            return true;
        // Any path from i's block to j's block (possibly around a
        // cycle re-entering the same block).
        return reach.reaches(i.block, j.block);
    };

    // Bucket accesses by alias class so the pair scan only visits
    // combinations that can alias: a specific class pairs with itself
    // and with kAliasAny, never with another specific class. Buckets
    // hold collection indices in increasing order, and candidates are
    // merged back into collection order, so the emitted dependences
    // and their order are exactly those of the all-pairs scan.
    const int na = static_cast<int>(accesses.size());
    std::unordered_map<AliasClass, std::vector<int>> by_class;
    std::vector<int> any_class;
    for (int k = 0; k < na; ++k) {
        if (accesses[k].alias == kAliasAny)
            any_class.push_back(k);
        else
            by_class[accesses[k].alias].push_back(k);
    }

    std::vector<MemDep> deps;
    std::vector<int> merged;
    for (int ii = 0; ii < na; ++ii) {
        const auto &i = accesses[ii];

        const std::vector<int> *candidates;
        if (i.alias == kAliasAny) {
            // kAliasAny may alias everything: scan all of them.
            candidates = nullptr;
        } else {
            const std::vector<int> &same = by_class[i.alias];
            merged.clear();
            merged.reserve(same.size() + any_class.size());
            std::merge(same.begin(), same.end(), any_class.begin(),
                       any_class.end(), std::back_inserter(merged));
            candidates = &merged;
        }

        const int nj =
            candidates ? static_cast<int>(candidates->size()) : na;
        for (int jj = 0; jj < nj; ++jj) {
            const auto &j =
                accesses[candidates ? (*candidates)[jj] : jj];
            if (i.id == j.id)
                continue;
            if (!i.is_store && !j.is_store)
                continue; // read-read never constrains
            if (!mayAlias(i.alias, j.alias))
                continue;
            if (!pathExists(i, j))
                continue;
            MemDepKind kind = i.is_store
                                  ? (j.is_store ? MemDepKind::Output
                                                : MemDepKind::Flow)
                                  : MemDepKind::Anti;
            deps.push_back({i.id, j.id, kind});
        }
    }
    return deps;
}

} // namespace gmt
