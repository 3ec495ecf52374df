#include "workloads/generate.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "runtime/interpreter.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/serialize.hpp"

namespace gmt
{

namespace
{

using MemPairs = std::vector<std::pair<int64_t, int64_t>>;

int64_t
totalCells(const GenOptions &opts)
{
    return std::max(1, opts.num_alias_classes) * opts.class_cells;
}

/** Structured random program generator (testgen.cpp's shape, but with
 *  unique labels, sound alias regions, and an outer loop over the
 *  cell argument). */
class CellGenerator
{
  public:
    CellGenerator(Rng &rng, const GenOptions &opts, std::string name)
        : rng_(rng), opts_(opts), builder_(std::move(name))
    {
    }

    Function
    run()
    {
        n_ = builder_.param();
        Reg x = builder_.param();

        BlockId entry = newBlock("entry");
        builder_.setBlock(entry);
        pool_.push_back(x);
        for (int i = 1; i < opts_.pool_regs; ++i)
            pool_.push_back(builder_.constI(rng_.nextRange(-64, 64)));
        one_ = builder_.constI(1);
        i_ = builder_.constI(0);

        BlockId head = newBlock("head");
        BlockId body = newBlock("body");
        BlockId done = newBlock("done");
        builder_.jmp(head);

        builder_.setBlock(head);
        Reg more = builder_.cmpLt(i_, n_);
        builder_.br(more, body, done);

        builder_.setBlock(body);
        emitSequence(opts_.max_depth);
        builder_.addInto(i_, i_, one_);
        builder_.jmp(head);

        builder_.setBlock(done);
        builder_.ret(pool_);
        return builder_.finish();
    }

  private:
    BlockId
    newBlock(const std::string &prefix)
    {
        return builder_.newBlock(prefix + std::to_string(label_++));
    }

    Reg
    randomPool()
    {
        return pool_[rng_.nextBelow(pool_.size())];
    }

    AliasClass
    randomAlias()
    {
        if (opts_.num_alias_classes == 0)
            return kAliasAny;
        return static_cast<AliasClass>(
            rng_.nextBelow(opts_.num_alias_classes + 1));
    }

    /**
     * In-bounds address for @p alias: class k stays inside class k's
     * region, only kAliasAny roams the whole image — so the alias
     * annotation is sound and the differential oracles hold.
     */
    Reg
    emitAddress(AliasClass alias)
    {
        // rem before abs: |v % n| < n for every v, while abs(INT64_MIN)
        // wraps and INT64_MIN % n is negative.
        Reg v = randomPool();
        if (alias == kAliasAny) {
            Reg cells = builder_.constI(totalCells(opts_));
            return builder_.abs(builder_.rem(v, cells));
        }
        Reg region = builder_.constI(opts_.class_cells);
        Reg off = builder_.abs(builder_.rem(v, region));
        return builder_.addImm(off, (alias - 1) * opts_.class_cells);
    }

    void
    emitSimpleStmt()
    {
        if (rng_.nextDouble() < opts_.mem_prob) {
            AliasClass alias = randomAlias();
            Reg addr = emitAddress(alias);
            if (rng_.nextBool())
                builder_.loadInto(randomPool(), addr, 0, alias);
            else
                builder_.store(addr, 0, randomPool(), alias);
            return;
        }
        static const Opcode kOps[] = {
            Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
            Opcode::Rem, Opcode::And, Opcode::Or,  Opcode::Xor,
            Opcode::Shl, Opcode::Shr, Opcode::Min, Opcode::Max,
            Opcode::CmpLt, Opcode::CmpEq};
        Opcode op = kOps[rng_.nextBelow(std::size(kOps))];
        builder_.binopInto(op, randomPool(), randomPool(),
                           randomPool());
    }

    void
    emitSequence(int depth)
    {
        int n = 1 + static_cast<int>(rng_.nextBelow(
                        static_cast<uint64_t>(opts_.max_stmts)));
        for (int i = 0; i < n; ++i) {
            double roll = rng_.nextDouble();
            if (depth > 0 && roll < 0.2)
                emitIf(depth - 1);
            else if (depth > 0 && roll < 0.35)
                emitWhile(depth - 1);
            else
                emitSimpleStmt();
        }
    }

    void
    emitIf(int depth)
    {
        Reg cond = builder_.cmpLt(randomPool(), randomPool());
        BlockId then_b = newBlock("then");
        BlockId else_b = newBlock("else");
        BlockId join_b = newBlock("join");
        builder_.br(cond, then_b, else_b);
        builder_.setBlock(then_b);
        emitSequence(depth);
        builder_.jmp(join_b);
        builder_.setBlock(else_b);
        if (rng_.nextBool())
            emitSequence(depth);
        builder_.jmp(join_b);
        builder_.setBlock(join_b);
    }

    void
    emitWhile(int depth)
    {
        // Bounded, data-dependent trip count: |pool| % max_trips.
        Reg v = builder_.abs(randomPool());
        Reg bound = builder_.constI(opts_.max_loop_trips);
        Reg counter = builder_.mov(builder_.rem(v, bound));

        BlockId head = newBlock("whead");
        BlockId body = newBlock("wbody");
        BlockId exit = newBlock("wexit");
        builder_.jmp(head);
        builder_.setBlock(head);
        Reg zero = builder_.constI(0);
        Reg cond = builder_.cmpGt(counter, zero);
        builder_.br(cond, body, exit);
        builder_.setBlock(body);
        emitSequence(depth);
        builder_.binopInto(Opcode::Sub, counter, counter, one_);
        builder_.jmp(head);
        builder_.setBlock(exit);
    }

    Rng &rng_;
    GenOptions opts_;
    FunctionBuilder builder_;
    std::vector<Reg> pool_;
    Reg n_ = kNoReg;
    Reg i_ = kNoReg;
    Reg one_ = kNoReg;
    int label_ = 0;
};

/** Nonzero cells of @p w's materialized fill. */
MemPairs
materializePairs(const Workload &w, bool ref)
{
    MemPairs pairs;
    if (!w.fill)
        return pairs;
    MemoryImage mi;
    mi.alloc(w.mem_cells);
    w.fill(mi, ref);
    for (int64_t a = 0; a < mi.size(); ++a) {
        if (int64_t v = mi.read(a))
            pairs.emplace_back(a, v);
    }
    return pairs;
}

std::function<void(MemoryImage &, bool)>
fillFromPairs(MemPairs train, MemPairs ref)
{
    return [train = std::move(train),
            ref = std::move(ref)](MemoryImage &mi, bool is_ref) {
        for (const auto &[addr, val] : is_ref ? ref : train)
            mi.write(addr, val);
    };
}

// ---------------------------------------------------------------------------
// Reducer.

/**
 * Rebuild @p src with @p drop[i] instructions removed and Br
 * terminators of blocks in @p to_jmp collapsed to a Jmp onto the kept
 * successor; blocks that become unreachable are pruned. Returns false
 * (leaving @p out untouched) if the result does not verify.
 */
bool
rebuildFunction(const Function &src, const std::vector<char> &drop,
                const std::map<BlockId, BlockId> &to_jmp,
                const std::vector<Reg> &live_outs, Function *out)
{
    // New successor lists, then reachability over them.
    std::vector<std::vector<BlockId>> succs(src.numBlocks());
    for (BlockId b = 0; b < src.numBlocks(); ++b) {
        auto it = to_jmp.find(b);
        if (it != to_jmp.end())
            succs[b] = {it->second};
        else
            succs[b] = src.block(b).succs();
    }
    std::vector<char> reach(src.numBlocks(), 0);
    std::vector<BlockId> stack = {src.entry()};
    reach[src.entry()] = 1;
    while (!stack.empty()) {
        BlockId b = stack.back();
        stack.pop_back();
        for (BlockId s : succs[b]) {
            if (!reach[s]) {
                reach[s] = 1;
                stack.push_back(s);
            }
        }
    }

    Function f(src.name());
    f.ensureRegs(src.numRegs());
    for (Reg p : src.params())
        f.addParam(p);
    std::vector<BlockId> remap(src.numBlocks(), kNoBlock);
    for (BlockId b = 0; b < src.numBlocks(); ++b) {
        if (reach[b])
            remap[b] = f.addBlock(src.block(b).label());
    }
    if (remap[src.entry()] == kNoBlock)
        return false;
    for (BlockId b = 0; b < src.numBlocks(); ++b) {
        if (!reach[b])
            continue;
        for (InstrId i : src.block(b).instrs()) {
            Instr in = src.instr(i);
            bool is_term = in.isTerminator();
            if (!is_term && drop[i])
                continue;
            if (is_term && in.op == Opcode::Br && to_jmp.count(b)) {
                Instr j;
                j.op = Opcode::Jmp;
                f.append(remap[b], j);
                continue;
            }
            in.block = kNoBlock; // append() re-owns it
            f.append(remap[b], in);
        }
        std::vector<BlockId> mapped;
        for (BlockId s : succs[b])
            mapped.push_back(remap[s]);
        f.setSuccs(remap[b], mapped);
    }
    f.setEntry(remap[src.entry()]);
    f.setLiveOuts(live_outs);
    if (!verifyFunction(f).empty())
        return false;
    *out = std::move(f);
    return true;
}

/** Cheap sanity gate before paying for a pipeline run: the candidate
 *  must still terminate promptly under the reference interpreter. */
bool
terminatesQuickly(const Workload &w)
{
    try {
        MemoryImage mem;
        mem.alloc(w.mem_cells);
        if (w.fill)
            w.fill(mem, true);
        interpret(w.func, w.ref_args, mem, 20'000'000);
        return true;
    } catch (const FatalError &) {
        return false;
    } catch (const PanicError &) {
        return false;
    }
}

struct ReduceState
{
    Workload cur;
    MemPairs train, ref;
    const FailurePredicate &fails;

    Workload
    candidate(Function f, MemPairs t, MemPairs r) const
    {
        Workload c = cur;
        c.func = std::move(f);
        c.fill = fillFromPairs(std::move(t), std::move(r));
        return c;
    }

    bool
    accept(Workload c)
    {
        if (!terminatesQuickly(c) || !fails(c))
            return false;
        train = materializePairs(c, false);
        ref = materializePairs(c, true);
        cur = std::move(c);
        return true;
    }
};

/** Copy of the function with a different live-out list (if valid). */
bool
withLiveOuts(const Function &src, std::vector<Reg> outs, Function *out)
{
    std::vector<char> drop(src.numInstrs(), 0);
    return rebuildFunction(src, drop, {}, std::move(outs), out);
}

bool
tryBranchCollapse(ReduceState &st)
{
    const Function &f = st.cur.func;
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        InstrId t = f.block(b).terminator();
        if (t == kNoInstr || f.instr(t).op != Opcode::Br)
            continue;
        for (BlockId target : f.block(b).succs()) {
            Function cand(f.name());
            std::vector<char> drop(f.numInstrs(), 0);
            if (!rebuildFunction(f, drop, {{b, target}}, f.liveOuts(),
                                 &cand))
                continue;
            if (st.accept(st.candidate(std::move(cand), st.train,
                                       st.ref)))
                return true;
        }
    }
    return false;
}

bool
tryDropInstrs(ReduceState &st)
{
    const Function &f = st.cur.func;
    std::vector<InstrId> droppable;
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        for (InstrId i : f.block(b).instrs()) {
            if (!f.instr(i).isTerminator())
                droppable.push_back(i);
        }
    }
    // Exponentially shrinking batches: halves first, singletons last.
    for (size_t chunk = std::max<size_t>(droppable.size() / 2, 1);;
         chunk /= 2) {
        for (size_t at = 0; at < droppable.size(); at += chunk) {
            std::vector<char> drop(f.numInstrs(), 0);
            for (size_t k = at;
                 k < std::min(at + chunk, droppable.size()); ++k)
                drop[droppable[k]] = 1;
            Function cand(f.name());
            if (!rebuildFunction(f, drop, {}, f.liveOuts(), &cand))
                continue;
            if (st.accept(st.candidate(std::move(cand), st.train,
                                       st.ref)))
                return true;
        }
        if (chunk <= 1)
            return false;
    }
}

bool
tryShrinkLiveOuts(ReduceState &st)
{
    const std::vector<Reg> &outs = st.cur.func.liveOuts();
    if (outs.size() <= 1)
        return false;
    for (size_t i = 0; i < outs.size(); ++i) {
        std::vector<Reg> fewer = outs;
        fewer.erase(fewer.begin() + static_cast<long>(i));
        Function cand(st.cur.func.name());
        if (!withLiveOuts(st.cur.func, std::move(fewer), &cand))
            continue;
        if (st.accept(
                st.candidate(std::move(cand), st.train, st.ref)))
            return true;
    }
    return false;
}

bool
tryDropFillPairs(ReduceState &st)
{
    for (bool ref : {false, true}) {
        const MemPairs &pairs = ref ? st.ref : st.train;
        if (pairs.empty())
            continue;
        for (size_t chunk = std::max<size_t>(pairs.size() / 2, 1);;
             chunk /= 2) {
            for (size_t at = 0; at < pairs.size(); at += chunk) {
                MemPairs fewer;
                for (size_t k = 0; k < pairs.size(); ++k) {
                    if (k < at || k >= at + chunk)
                        fewer.push_back(pairs[k]);
                }
                Function cand = st.cur.func; // unchanged
                Workload c = st.candidate(
                    std::move(cand), ref ? st.train : fewer,
                    ref ? fewer : st.ref);
                if (st.accept(std::move(c)))
                    return true;
            }
            if (chunk <= 1)
                break;
        }
    }
    return false;
}

} // namespace

Workload
generateWorkload(uint64_t seed, const GenOptions &opts)
{
    Rng rng(seed ^ 0x67656e63656c6cull); // "gencell"
    std::string name = "gen" + std::to_string(seed);

    CellGenerator gen(rng, opts, name);
    Function raw = gen.run();

    Workload w;
    w.name = name;
    w.function_name = name;
    w.exec_percent = 100;
    // Canonicalize: arena order == block order, so a dumped repro
    // reloads with identical ids and digest.
    w.func = parseFunction(functionToString(raw));
    w.mem_cells = totalCells(opts);
    w.train_args = {opts.train_iters, rng.nextRange(-1000, 1000)};
    w.ref_args = {opts.ref_iters, rng.nextRange(-1000, 1000)};

    MemPairs train, ref;
    for (int i = 0; i < opts.fill_pairs; ++i) {
        train.emplace_back(
            static_cast<int64_t>(
                rng.nextBelow(static_cast<uint64_t>(w.mem_cells))),
            rng.nextRange(-512, 512));
        ref.emplace_back(
            static_cast<int64_t>(
                rng.nextBelow(static_cast<uint64_t>(w.mem_cells))),
            rng.nextRange(-512, 512));
    }
    w.fill = fillFromPairs(std::move(train), std::move(ref));
    w.source = "<fuzz>";
    w.digest = hexDigest(fnv1a64(workloadToText(w)));

    verifyOrDie(w.func, {}, "generated " + name);
    return w;
}

Workload
reduceWorkload(const Workload &w, const FailurePredicate &fails)
{
    ReduceState st{w, materializePairs(w, false),
                   materializePairs(w, true), fails};
    st.cur.fill = fillFromPairs(st.train, st.ref);
    if (!fails(st.cur))
        return w;

    // Each accepted step strictly shrinks (instrs, blocks, branches,
    // live-outs, fill pairs), so this terminates.
    bool changed = true;
    while (changed) {
        changed = false;
        while (tryBranchCollapse(st))
            changed = true;
        while (tryDropInstrs(st))
            changed = true;
        if (tryShrinkLiveOuts(st))
            changed = true;
        if (tryDropFillPairs(st))
            changed = true;
    }

    // Canonicalize so saveWorkloadFile(result) reloads bit-identically.
    Workload out = workloadFromText(workloadToText(st.cur), "<reduce>");
    out.source = w.source;
    return out;
}

} // namespace gmt
